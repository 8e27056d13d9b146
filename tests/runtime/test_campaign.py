"""Campaign determinism: kill, resume, and still match the clean run.

These are the acceptance tests for the resilient runtime — a campaign
interrupted at an arbitrary seed and resumed from its journal must
yield aggregates bit-identical to the same campaign run uninterrupted,
for both serial and parallel paths; a worker killed mid-campaign must
end the same way after recovery.
"""

import dataclasses

import pytest

from repro.analysis.parallel import REPLICATION_SPECS, BenignReplicationSpec
from repro.analysis.stats import merge_replications, replicate
from repro.faults import CrashingSpec
from repro.runtime import (
    CampaignJournal,
    JournalError,
    SupervisorPolicy,
    run_campaign,
)

SPEC = BenignReplicationSpec(accesses=500, scale=8)
SEEDS = [101, 102, 103, 104]
FAST = SupervisorPolicy(backoff_base_s=0.001, backoff_cap_s=0.01)
#: every ``repro replicate`` spec, shrunk to about a second per campaign
SMALL_SPECS = {
    "E4": dataclasses.replace(REPLICATION_SPECS["E4"], scale=128),
    "E10": dataclasses.replace(REPLICATION_SPECS["E10"], scale=128),
    "E13": dataclasses.replace(REPLICATION_SPECS["E13"], accesses=500),
}


@pytest.fixture(scope="module")
def clean_aggregates():
    """The uninterrupted serial reference fold."""
    return replicate(SPEC, SEEDS)


class TestCleanCampaign:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(REPLICATION_SPECS))
    def test_bit_identical_to_serial_replicate(self, name, jobs, tmp_path):
        spec = SMALL_SPECS[name]
        result = run_campaign(
            spec, SEEDS, jobs=jobs, policy=FAST,
            journal_path=tmp_path / "c.jsonl", experiment=name,
        )
        assert result.complete
        serial = [spec(seed) for seed in SEEDS]  # what replicate() folds
        assert [result.completed[seed] for seed in SEEDS] == serial
        assert result.aggregates == merge_replications(serial)

    def test_without_journal(self, clean_aggregates):
        result = run_campaign(SPEC, SEEDS, jobs=2, policy=FAST)
        assert result.complete
        assert result.aggregates == clean_aggregates
        assert result.journal_path is None

    def test_resume_without_journal_path_rejected(self):
        with pytest.raises(JournalError, match="without a journal"):
            run_campaign(SPEC, SEEDS, resume=True)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_campaign(SPEC, [])


class TestWorkerDeathRecovery:
    @pytest.mark.parametrize("jobs", [2])
    def test_killed_worker_recovers_bit_identically(
        self, jobs, clean_aggregates, tmp_path
    ):
        # The satellite acceptance test: a worker dies mid-campaign,
        # the supervisor respawns the pool and retries, and the final
        # aggregates are indistinguishable from a crash-free run.
        spec = CrashingSpec(
            spec=SPEC, crash_seeds=(102,), mode="kill",
            marker_dir=str(tmp_path / "markers"),
        )
        result = run_campaign(
            spec, SEEDS, jobs=jobs, policy=FAST,
            journal_path=tmp_path / "c.jsonl",
        )
        assert result.complete
        assert result.respawns >= 1
        assert result.aggregates == clean_aggregates

    def test_killed_worker_then_resume_bit_identical(
        self, clean_aggregates, tmp_path
    ):
        # Crash with no retry budget -> incomplete campaign; then a
        # second invocation resumes from the journal and completes.
        journal_path = tmp_path / "c.jsonl"
        markers = str(tmp_path / "markers")
        spec = CrashingSpec(
            spec=SPEC, crash_seeds=(103,), mode="kill", marker_dir=markers,
        )
        broke = run_campaign(
            spec, SEEDS, jobs=2,
            policy=SupervisorPolicy(max_retries=0, backoff_base_s=0.001),
            journal_path=journal_path,
        )
        assert not broke.complete
        assert broke.incomplete_seeds  # 103, plus any innocent casualties

        resumed = run_campaign(
            spec, SEEDS, jobs=2, policy=FAST,
            journal_path=journal_path, resume=True,
        )
        assert resumed.complete
        assert resumed.resumed == len(broke.completed)
        assert resumed.aggregates == clean_aggregates


class TestResume:
    def _partial_journal(self, tmp_path, completed_seeds):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS, "E13")
        for seed in completed_seeds:
            journal.record(seed, SPEC(seed))
        journal.close()
        return path

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cut", [1, 3])
    def test_resume_any_interruption_point_bit_identical(
        self, jobs, cut, clean_aggregates, tmp_path
    ):
        path = self._partial_journal(tmp_path, SEEDS[:cut])
        result = run_campaign(
            SPEC, SEEDS, jobs=jobs, policy=FAST,
            journal_path=path, resume=True, experiment="E13",
        )
        assert result.complete
        assert result.resumed == cut
        assert result.aggregates == clean_aggregates

    def test_fully_complete_journal_resumes_to_noop(
        self, clean_aggregates, tmp_path
    ):
        path = self._partial_journal(tmp_path, SEEDS)
        result = run_campaign(
            SPEC, SEEDS, jobs=2, policy=FAST,
            journal_path=path, resume=True, experiment="E13",
        )
        assert result.complete and result.resumed == len(SEEDS)
        assert result.aggregates == clean_aggregates

    def test_resume_counts_resumed_seeds(self, tmp_path):
        path = self._partial_journal(tmp_path, SEEDS[:2])
        result = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=path, resume=True, experiment="E13",
        )
        assert result.complete
        assert result.resumed == 2
        assert set(result.worker_metrics) == set(SEEDS[2:])  # ran here

    def test_resume_refuses_foreign_journal(self, tmp_path):
        path = self._partial_journal(tmp_path, SEEDS[:1])
        with pytest.raises(JournalError, match="fingerprint"):
            run_campaign(
                SPEC, SEEDS + [105], jobs=1, policy=FAST,
                journal_path=path, resume=True, experiment="E13",
            )
        other = BenignReplicationSpec(accesses=999, scale=8)
        with pytest.raises(JournalError, match="fingerprint"):
            run_campaign(
                other, SEEDS, jobs=1, policy=FAST,
                journal_path=path, resume=True, experiment="E13",
            )
