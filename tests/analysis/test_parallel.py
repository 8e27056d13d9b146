"""Worker-count resolution and the replication-spec registry.

Fanning the specs out across processes is :func:`repro.runtime.run_campaign`'s
job; its pool == serial cases live in ``tests/runtime/test_campaign.py``.
"""

import pytest

from repro.analysis.parallel import (
    JOBS_ENV,
    REPLICATION_SPECS,
    default_jobs,
    resolve_jobs,
)


class TestJobResolution:
    def test_explicit_jobs_win(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5
        assert default_jobs() == 5

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "zero")
        with pytest.raises(ValueError, match="positive integer"):
            default_jobs()
        monkeypatch.setenv(JOBS_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_jobs()

    def test_empty_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() >= 1

    def test_invalid_explicit_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestSpecRegistry:
    def test_known_experiments(self):
        assert set(REPLICATION_SPECS) == {"E4", "E10", "E13"}

    @pytest.mark.parametrize("name", sorted(REPLICATION_SPECS))
    def test_specs_are_picklable(self, name):
        import pickle

        spec = REPLICATION_SPECS[name]
        assert pickle.loads(pickle.dumps(spec)) == spec
