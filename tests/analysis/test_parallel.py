"""Worker-count resolution, the replication-spec registry, and the one
platform resolver the specs share with the CLI and the sweeps.

Fanning the specs out across processes is :func:`repro.runtime.run_campaign`'s
job; its pool == serial cases live in ``tests/runtime/test_campaign.py``.
"""

import pytest

import repro.cli
from repro.analysis import scenarios
from repro.analysis.experiments import _hosting_config
from repro.analysis.parallel import (
    JOBS_ENV,
    REPLICATION_SPECS,
    AttackReplicationSpec,
    BenignReplicationSpec,
    default_jobs,
    resolve_jobs,
)
from repro.defenses.registry import DEFENSE_BY_NAME, platform_for


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


class _Built(BaseException):
    """Carries the config a scenario builder was handed; a BaseException
    so the CLI's readable-error ``except Exception`` lets it through."""

    def __init__(self, config):
        super().__init__()
        self.config = config


def _raise_built(config, *args, **kwargs):
    raise _Built(config)


@pytest.mark.parametrize("name", sorted(DEFENSE_BY_NAME))
class TestOnePlatformResolver:
    """Hosting a named defense on its cheapest platform builds the same
    config on every path: the experiment sweeps (``_hosting_config``),
    both replication specs and ``repro attack``."""

    def expected(self, name):
        return _hosting_config(DEFENSE_BY_NAME[name], 8)

    def test_benign_spec(self, name, monkeypatch):
        monkeypatch.setattr(scenarios, "run_benign", _raise_built)
        spec = BenignReplicationSpec(
            platform=platform_for(DEFENSE_BY_NAME[name]), defense=name,
            scale=8,
        )
        with pytest.raises(_Built) as built:
            spec(1234)
        assert built.value.config == self.expected(name)

    def test_attack_spec(self, name, monkeypatch):
        monkeypatch.setattr(scenarios, "build_scenario", _raise_built)
        spec = AttackReplicationSpec(
            platform=platform_for(DEFENSE_BY_NAME[name]), defense=name,
            scale=8,
        )
        with pytest.raises(_Built) as built:
            spec(1234)
        assert built.value.config == self.expected(name)

    def test_cli_attack(self, name, monkeypatch):
        monkeypatch.setattr(repro.cli, "build_scenario", _raise_built)
        with pytest.raises(_Built) as built:
            repro.cli.main([
                "attack", "--platform", platform_for(DEFENSE_BY_NAME[name]),
                "--defense", name, "--scale", "8",
            ])
        assert built.value.config == self.expected(name)
