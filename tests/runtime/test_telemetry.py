"""Campaign telemetry: lifecycle sidecar + worker metrics capture.

Scenario callables live at module level so they pickle across the
process boundary (as in ``test_supervisor.py``).
"""

import json
import pickle

import pytest

from repro.analysis.parallel import BenignReplicationSpec
from repro.obs.events import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_STARTED,
    SEED_FAILED,
    SEED_FINISHED,
    SEED_RETRIED,
    SEED_STARTED,
)
from repro.runtime import (
    CampaignTelemetry,
    CapturedScenario,
    Supervisor,
    SupervisorPolicy,
    build_run_report,
    load_journal,
    merge_metric_snapshots,
    read_telemetry,
    render_run_report,
    run_campaign,
    summarize_telemetry,
    telemetry_path,
    write_run_report,
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


def counts_by_kind(events):
    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class TestTelemetryStream:
    def test_round_trips_through_the_trace_reader(self, tmp_path):
        path = tmp_path / "c.jsonl.telemetry"
        with CampaignTelemetry(path) as stream:
            stream.emit(SEED_STARTED, seed=7, attempt=1)
            stream.emit(SEED_FINISHED, seed=7, done=1, total=1, eta_s=0.0)
        assert stream.events_written == 2
        events = read_telemetry(path)
        assert [e.kind for e in events] == [SEED_STARTED, SEED_FINISHED]
        assert events[0].data == {"seed": 7, "attempt": 1}
        assert events[1].data["eta_s"] == 0.0
        assert all(e.time_ns > 0 for e in events)

    def test_missing_and_empty_sidecars_are_no_events(self, tmp_path):
        assert read_telemetry(tmp_path / "nonexistent") == []
        empty = tmp_path / "empty.telemetry"
        empty.touch()
        assert read_telemetry(empty) == []

    def test_append_mode_preserves_history(self, tmp_path):
        path = tmp_path / "t.telemetry"
        with CampaignTelemetry(path) as stream:
            stream.emit(CAMPAIGN_STARTED, seeds=3)
        with CampaignTelemetry(path, append=True) as stream:
            stream.emit(CAMPAIGN_STARTED, seeds=3, resumed=2)
        kinds = [e.kind for e in read_telemetry(path)]
        assert kinds == [CAMPAIGN_STARTED, CAMPAIGN_STARTED]

    def test_emit_after_close_is_a_noop(self, tmp_path):
        stream = CampaignTelemetry(tmp_path / "t.telemetry")
        stream.close()
        stream.emit(SEED_STARTED, seed=1)
        assert stream.events_written == 0


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
    def run_supervised(self, scenario, tmp_path, **map_kwargs):
        path = tmp_path / "t.telemetry"
        with CampaignTelemetry(path) as stream:
            supervisor = Supervisor(FAST, telemetry=stream)
            outcome = supervisor.map(scenario, SEEDS, jobs=1, **map_kwargs)
        return outcome, read_telemetry(path)

    def test_lifecycle_counts_with_one_retry(self, tmp_path):
        _FLAKY_SEEN.clear()
        outcome, events = self.run_supervised(flaky_scenario, tmp_path)
        assert not outcome.failures
        counts = counts_by_kind(events)
        # Seed 32 burns one extra attempt: 3 seeds + 1 retry = 4 starts.
        assert counts[SEED_STARTED] == len(SEEDS) + 1
        assert counts[SEED_FINISHED] == len(SEEDS)
        assert counts[SEED_RETRIED] == 1
        assert SEED_FAILED not in counts

    def test_finished_events_carry_progress_and_eta(self, tmp_path):
        outcome, events = self.run_supervised(toy_scenario, tmp_path)
        finished = [e for e in events if e.kind == SEED_FINISHED]
        assert [e.data["done"] for e in finished] == [1, 2, 3]
        assert all(e.data["total"] == len(SEEDS) for e in finished)
        # An ETA exists from the first completion on; the last is zero
        # (nothing remains to extrapolate).
        assert all(e.data["eta_s"] is not None for e in finished)
        assert finished[-1].data["eta_s"] == 0.0

    def test_exhausted_retries_emit_seed_failed(self, tmp_path):
        policy = SupervisorPolicy(
            max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01
        )
        path = tmp_path / "t.telemetry"
        with CampaignTelemetry(path) as stream:
            outcome = Supervisor(policy, telemetry=stream).map(
                always_failing, [41], jobs=1
            )
        assert 41 in outcome.failures
        counts = counts_by_kind(read_telemetry(path))
        assert counts[SEED_STARTED] == 2  # first attempt + one retry
        assert counts[SEED_RETRIED] == 1
        assert counts[SEED_FAILED] == 1

    def test_capture_metrics_ships_snapshots(self, tmp_path):
        delivered = {}

        def on_result(seed, result, metrics):
            delivered[seed] = (result, metrics)

        outcome, _ = self.run_supervised(
            toy_scenario, tmp_path,
            on_result=on_result, capture_metrics=True,
        )
        assert outcome.results == {s: toy_scenario(s) for s in SEEDS}
        assert set(outcome.worker_metrics) == set(SEEDS)
        assert delivered == {s: (toy_scenario(s), {}) for s in SEEDS}


class TestCampaignTelemetryEndToEnd:
    def test_journaled_campaign_streams_lifecycle(self, tmp_path):
        journal = tmp_path / "c.jsonl"
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
        assert result.metrics["runtime.seeds_completed"] == len(SEEDS)
        snapshot = load_journal(journal)
        assert set(snapshot.worker_metrics) == set(SEEDS)
        counts = counts_by_kind(read_telemetry(telemetry_path(journal)))
        assert counts[CAMPAIGN_STARTED] == 1
        assert counts[SEED_STARTED] == len(SEEDS)
        assert counts[SEED_FINISHED] == len(SEEDS)
        assert counts[CAMPAIGN_FINISHED] == 1

    def test_resume_preserves_metrics_and_appends_telemetry(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        first = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST, journal_path=journal,
        )
        resumed = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=journal, resume=True,
        )
        assert resumed.resumed == len(SEEDS)
        assert resumed.worker_metrics == first.worker_metrics
        assert resumed.metrics["mc.acts"] == first.metrics["mc.acts"]
        assert resumed.aggregates == first.aggregates
        counts = counts_by_kind(read_telemetry(telemetry_path(journal)))
        assert counts[CAMPAIGN_STARTED] == 2  # sidecar appended, not reset
        assert counts[CAMPAIGN_FINISHED] == 2
        assert counts[SEED_STARTED] == len(SEEDS)  # nothing re-ran

    def test_capture_can_be_disabled(self, tmp_path):
        result = run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=tmp_path / "c.jsonl", capture_metrics=False,
        )
        assert result.complete
        assert result.worker_metrics == {}
        assert all(key.startswith("runtime.") for key in result.metrics)

    def test_load_journal_is_read_only(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        run_campaign(SPEC, SEEDS, jobs=1, policy=FAST, journal_path=journal)
        before = journal.read_bytes()
        snapshot = load_journal(journal)
        assert journal.read_bytes() == before
        assert sorted(snapshot.completed) == SEEDS
        assert snapshot.pending() == []


class TestRunReport:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        journal = tmp_path_factory.mktemp("report") / "c.jsonl"
        run_campaign(
            SPEC, SEEDS, jobs=1, policy=FAST,
            journal_path=journal, experiment="E13",
        )
        return journal

    def test_report_is_deterministic(self, campaign):
        first = build_run_report(campaign)
        second = build_run_report(campaign)
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_report_contents(self, campaign):
        report = build_run_report(campaign)
        assert report["campaign"]["experiment"] == "E13"
        assert report["campaign"]["completed"] == len(SEEDS)
        assert report["campaign"]["pending"] == []
        assert report["metrics"]["mc.acts"] > 0
        assert "flips" in report["aggregates"] or report["aggregates"]
        telemetry = report["telemetry"]
        assert telemetry["seeds_finished"] == len(SEEDS)
        assert telemetry["counts_by_kind"][CAMPAIGN_FINISHED] == 1
        assert telemetry["runtime"]["runtime.seeds_completed"] == len(SEEDS)

    def test_summarize_telemetry_on_the_raw_events(self, campaign):
        events = read_telemetry(telemetry_path(campaign))
        summary = summarize_telemetry(events)
        assert summary["events"] == len(events)
        assert summary["seeds_started"] == len(SEEDS)
        assert summary["wall_span_ns"] >= 0

    def test_write_run_report_renders_both_forms(self, campaign, tmp_path):
        base = tmp_path / "out"
        json_path, md_path = write_run_report(campaign, output_base=base)
        assert json_path.exists() and md_path.exists()
        loaded = json.loads(json_path.read_text())
        assert loaded == build_run_report(campaign)
        markdown = md_path.read_text()
        assert render_run_report(build_run_report(campaign)) == markdown
        assert "mc.acts" in markdown
