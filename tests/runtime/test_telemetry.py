"""Campaign telemetry as the journal carries it: attempts, failures and
wall-clock times on the journal's lines, worker-metrics capture, and the
merge of per-seed registry snapshots.

Scenario callables live at module level so they pickle across the
process boundary (as in ``test_supervisor.py``).
"""

import json
import pickle

import pytest

from repro.analysis.parallel import BenignReplicationSpec
from repro.runtime import (
    CampaignHeader,
    CapturedScenario,
    SCHEMA_VERSION,
    SupervisorPolicy,
    load_journal,
    merge_metric_snapshots,
    run_campaign,
)

SPEC = BenignReplicationSpec(accesses=400, scale=8)
SEEDS = [31, 32, 33]
FAST = SupervisorPolicy(backoff_base_s=0.001, backoff_cap_s=0.01)


def toy_scenario(seed):
    return {"doubled": seed * 2, "ratio": seed / 10.0}


_FLAKY_SEEN = set()


def flaky_scenario(seed):
    """Seed 32 fails exactly once per interpreter, then succeeds."""
    if seed == 32 and seed not in _FLAKY_SEEN:
        _FLAKY_SEEN.add(seed)
        raise RuntimeError("transient")
    return toy_scenario(seed)


def always_failing(seed):
    raise RuntimeError("permanent")


def journal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestMergeMetricSnapshots:
    def test_ints_sum_floats_average(self):
        merged = merge_metric_snapshots([
            {"mc.acts": 10, "cache.hit_rate": 0.5},
            {"mc.acts": 30, "cache.hit_rate": 0.7},
        ])
        assert merged["mc.acts"] == 40
        assert merged["cache.hit_rate"] == pytest.approx(0.6)

    def test_union_of_keys_never_drops_one(self):
        merged = merge_metric_snapshots([
            {"a": 1}, {"b": 2}, {"a": 3, "c": 0.25},
        ])
        assert merged == {"a": 4, "b": 2, "c": 0.25}

    def test_mixed_int_float_key_averages(self):
        # One carrier reports a normalized value: treat the key as a
        # gauge everywhere rather than adding rates to totals.
        merged = merge_metric_snapshots([{"x": 1}, {"x": 2.0}])
        assert merged["x"] == pytest.approx(1.5)

    def test_empty_inputs(self):
        assert merge_metric_snapshots([]) == {}
        assert merge_metric_snapshots([{}, {}]) == {}


class TestCapturedScenario:
    def test_envelope_ships_system_metrics(self):
        envelope = CapturedScenario(SPEC)(seed=5)
        assert envelope["result"] == SPEC(5)
        assert envelope["metrics"]["mc.acts"] > 0
        assert "mc.ref_bursts" in envelope["metrics"]

    def test_plain_scenario_has_no_metrics(self):
        envelope = CapturedScenario(toy_scenario)(seed=5)
        assert envelope == {"result": toy_scenario(5), "metrics": {}}

    def test_exceptions_pass_through(self):
        with pytest.raises(RuntimeError, match="permanent"):
            CapturedScenario(always_failing)(seed=5)

    def test_picklable(self):
        revived = pickle.loads(pickle.dumps(CapturedScenario(toy_scenario)))
        assert revived(4) == {"result": toy_scenario(4), "metrics": {}}


class TestSupervisorTelemetry:
    """The supervisor's attempts and failures reach the journal."""

    def test_lifecycle_counts_with_one_retry(self, tmp_path):
        _FLAKY_SEEN.clear()
        journal = tmp_path / "c.journal"
        result = run_campaign(
            flaky_scenario, SEEDS, jobs=1, policy=FAST, journal_path=journal,
        )
        assert result.complete and result.retries == 1
        lines = journal_lines(journal)[1:]
        # Seed 32 burns one extra attempt; every seed gets one line.
        assert {line["seed"]: line["attempts"] for line in lines} == {
            31: 1, 32: 2, 33: 1,
        }
        snapshot = load_journal(journal)
        assert snapshot.retries == {32: 1}
        assert not snapshot.failures and snapshot.pending() == []

    def test_finished_events_carry_progress_and_eta(self, tmp_path):
        journal = tmp_path / "c.journal"
        run_campaign(
            toy_scenario, SEEDS, jobs=1, policy=FAST, journal_path=journal,
        )
        header, *lines = journal_lines(journal)
        times = [header["t"]] + [line["t"] for line in lines]
        assert times == sorted(times)
        finished = load_journal(journal)
        assert finished.elapsed_s == pytest.approx(times[-1] - times[0])
        assert finished.eta_s is None  # nothing left to extrapolate

        # Progress and ETA of a journal one seed into three: the
        # remaining two take twice the time the first one did.
        partial = tmp_path / "partial.journal"
        start = CampaignHeader(
            schema=SCHEMA_VERSION, fingerprint="f", experiment="",
            spec={}, seeds=SEEDS, t=100.0,
        )
        partial.write_text(
            json.dumps(start.as_json_dict()) + "\n"
            + json.dumps({"seed": 31, "result": {}, "t": 103.0}) + "\n"
        )
        snapshot = load_journal(partial)
        assert snapshot.pending() == [32, 33]
        assert snapshot.elapsed_s == pytest.approx(3.0)
        assert snapshot.eta_s == pytest.approx(6.0)

    def test_exhausted_retries_emit_seed_failed(self, tmp_path):
        policy = SupervisorPolicy(
            max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01
        )
        journal = tmp_path / "c.journal"
        result = run_campaign(
            always_failing, [41], jobs=1, policy=policy, journal_path=journal,
        )
        assert 41 in result.failures
        _, line = journal_lines(journal)
        assert line["seed"] == 41 and line["attempts"] == 2  # try + retry
        assert "permanent" in line["failed"] and "t" in line
        snapshot = load_journal(journal)
        assert snapshot.failures[41] == result.failures[41]
        assert snapshot.completed == {} and snapshot.pending() == []
        assert snapshot.retries == {41: 1}


class TestCampaignTelemetryEndToEnd:
    def test_journaled_campaign_streams_lifecycle(self, tmp_path):
        journal = tmp_path / "c.journal"
        result = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=journal, experiment="E13",
        )
        assert result.complete
        # Worker metrics made it back, into the result and the journal.
        assert set(result.worker_metrics) == set(SEEDS)
        assert result.metrics["mc.acts"] == sum(
            result.worker_metrics[s]["mc.acts"] for s in SEEDS
        )
        assert load_journal(journal).worker_metrics == result.worker_metrics
        header, *lines = journal_lines(journal)
        assert "t" in header
        assert [line["seed"] for line in lines] == SEEDS
        assert all(
            line["attempts"] == 1 and "t" in line and "cached" not in line
            for line in lines
        )
        assert list(tmp_path.iterdir()) == [journal]  # the only record

    def test_resume_preserves_metrics_and_appends_telemetry(self, tmp_path):
        journal = tmp_path / "c.journal"
        first = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST, journal_path=journal,
        )
        kept = journal.read_text().splitlines()[:-1]  # lose the last seed
        journal.write_text("\n".join(kept) + "\n")
        resumed = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=journal, resume=True,
        )
        assert resumed.resumed == len(SEEDS) - 1
        assert resumed.worker_metrics == first.worker_metrics
        assert resumed.metrics == first.metrics
        assert resumed.aggregates == first.aggregates
        lines = journal.read_text().splitlines()
        assert lines[:-1] == kept  # appended, not rewritten
        assert json.loads(lines[-1])["seed"] == SEEDS[-1]

    def test_load_journal_is_read_only(self, tmp_path):
        journal = tmp_path / "c.journal"
        run_campaign(SPEC, SEEDS, jobs=1, policy=FAST, journal_path=journal)
        before = journal.read_bytes()
        snapshot = load_journal(journal)
        assert journal.read_bytes() == before
        assert sorted(snapshot.completed) == SEEDS
        assert snapshot.pending() == []
