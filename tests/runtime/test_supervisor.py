"""Supervisor recovery-ladder tests.

The scenario callables live at module level so they pickle across the
process boundary (the pool's workers import this module).
"""

import time

import pytest

from repro.analysis.parallel import effective_workers
from repro.faults import CrashingSpec, InjectedWorkerError
from repro.runtime import (
    SupervisorPolicy,
    Supervisor,
    backoff_delay,
)


def toy_scenario(seed):
    """Cheap, deterministic, picklable."""
    return {"doubled": seed * 2, "inverse": 1.0 / seed}


SEEDS = [11, 12, 13, 14]
FAST = SupervisorPolicy(backoff_base_s=0.001, backoff_cap_s=0.01)


def supervisor(policy=FAST):
    return Supervisor(policy=policy, fingerprint="test")


class TestHealthyPath:
    def test_matches_serial_results(self):
        outcome = Supervisor(FAST).map(toy_scenario, SEEDS, jobs=2)
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }
        assert not outcome.failures
        assert outcome.retries == outcome.respawns == 0
        assert not outcome.degraded

    def test_single_worker_stays_in_process(self):
        outcome = Supervisor(FAST).map(toy_scenario, SEEDS, jobs=1)
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }

    def test_on_result_sees_every_seed(self):
        delivered = {}
        Supervisor(FAST).map(
            toy_scenario, SEEDS, jobs=2,
            on_result=lambda seed, result, attempts: delivered.setdefault(
                seed, (result, attempts)
            ),
        )
        assert delivered == {s: (toy_scenario(s), 1) for s in SEEDS}

    def test_empty_seed_list_is_a_noop(self):
        outcome = Supervisor(FAST).map(toy_scenario, [], jobs=2)
        assert outcome.results == {} and not outcome.failures


class TestWorkerClamp:
    def test_effective_workers_clamps_to_tasks(self):
        assert effective_workers(8, 2) == 2
        assert effective_workers(2, 8) == 2
        assert effective_workers(4, 0) == 1
        assert effective_workers(1, 1) == 1


class TestRetry:
    def test_injected_exception_retried_to_success(self, tmp_path):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(12,), mode="raise",
            marker_dir=str(tmp_path / "markers"),
        )
        attempts = {}
        outcome = supervisor().map(
            spec, SEEDS, jobs=2,
            on_result=lambda seed, result, tries: attempts.update({seed: tries}),
        )
        assert not outcome.failures
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }
        assert outcome.retries == 1
        assert attempts == {11: 1, 12: 2, 13: 1, 14: 1}

    def test_retries_exhaust_into_permanent_failure(self):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(13,), mode="raise",
        )  # no marker_dir: fails every attempt
        policy = SupervisorPolicy(max_retries=1, backoff_base_s=0.001)
        reported = []
        outcome = supervisor(policy).map(
            spec, SEEDS, jobs=2, on_failure=reported.append
        )
        assert set(outcome.failures) == {13}
        assert reported == [outcome.failures[13]]
        assert outcome.failures[13].attempts == 2  # 1 try + 1 retry
        assert "InjectedWorkerError" in outcome.failures[13].reason
        assert set(outcome.results) == {11, 12, 14}

    def test_serial_path_retries_too(self, tmp_path):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(11,), mode="raise",
            marker_dir=str(tmp_path / "markers"),
        )
        outcome = Supervisor(FAST).map(spec, SEEDS, jobs=1)
        assert not outcome.failures
        assert outcome.results[11] == toy_scenario(11)


class TestPoolRespawn:
    def test_killed_worker_respawns_pool_and_completes(self, tmp_path):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(12,), mode="kill",
            marker_dir=str(tmp_path / "markers"),
        )
        outcome = supervisor().map(spec, SEEDS, jobs=2)
        assert not outcome.failures
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }
        assert outcome.respawns >= 1
        assert not outcome.degraded

    def test_respawn_budget_exhaustion_degrades_to_serial(self, tmp_path):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(11,), mode="kill",
            marker_dir=str(tmp_path / "markers"),
        )
        policy = SupervisorPolicy(
            max_pool_respawns=0, backoff_base_s=0.001
        )
        outcome = supervisor(policy).map(spec, SEEDS, jobs=2)
        assert outcome.degraded
        assert outcome.respawns == 1  # the one respawn that spent the budget
        assert not outcome.failures
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }


class TestTimeout:
    def test_hung_worker_is_recycled_and_seed_retried(self, tmp_path):
        spec = CrashingSpec(
            spec=toy_scenario, crash_seeds=(12,), mode="hang",
            hang_s=30.0, marker_dir=str(tmp_path / "markers"),
        )
        policy = SupervisorPolicy(
            timeout_s=1.0, backoff_base_s=0.001, poll_interval_s=0.02,
        )
        started = time.monotonic()
        outcome = supervisor(policy).map(spec, SEEDS, jobs=2)
        elapsed = time.monotonic() - started
        assert not outcome.failures
        assert outcome.results == {
            seed: toy_scenario(seed) for seed in SEEDS
        }
        assert outcome.timeouts >= 1
        assert elapsed < 25.0  # nowhere near the 30s hang
        assert outcome.respawns >= 1  # an expiry recycles the pool


class TestBackoff:
    def test_deterministic(self):
        a = backoff_delay("fp", 11, 1, FAST)
        assert a == backoff_delay("fp", 11, 1, FAST)

    def test_decorrelated_across_seeds_and_attempts(self):
        assert backoff_delay("fp", 11, 1, FAST) != \
            backoff_delay("fp", 12, 1, FAST)
        assert backoff_delay("fp", 11, 1, FAST) != \
            backoff_delay("fp", 11, 2, FAST)

    def test_grows_and_caps(self):
        policy = SupervisorPolicy(backoff_base_s=0.1, backoff_cap_s=0.4)
        delays = [
            backoff_delay("fp", 11, attempt, policy)
            for attempt in range(1, 8)
        ]
        assert all(delay <= 0.4 for delay in delays)
        assert max(delays) > delays[0]

    def test_attempt_counts_from_one(self):
        with pytest.raises(ValueError):
            backoff_delay("fp", 11, 0, FAST)


class TestPolicyValidation:
    def test_bad_policy_values_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_pool_respawns=-1)

    def test_crashing_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CrashingSpec(spec=toy_scenario, mode="meltdown")
