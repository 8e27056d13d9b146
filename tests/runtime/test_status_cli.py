"""``repro status``: one journal rendered from ``load_journal`` alone,
and a directory of journals as a deterministic multi-campaign table."""

import contextlib
import io
import json

import pytest

from repro.analysis.parallel import BenignReplicationSpec
from repro.cli import main
from repro.faults import CrashingSpec
from repro.runtime import (
    CapturedScenario,
    SupervisorPolicy,
    campaign_fingerprint,
    load_journal,
    run_campaign,
    spec_signature,
)
from repro.runtime.journal import CampaignJournal


def run_cli(argv):
    """Exit code and stdout of one CLI invocation."""
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    return code, stream.getvalue()


def aggregate_lines(output):
    """The aggregate lines ``replicate`` prints (``describe()`` output)."""
    return [line for line in output.splitlines() if "95% CI" in line]


class TestStatusDirectory:
    def make_journal(self, directory, name, seeds, experiment):
        spec = BenignReplicationSpec(accesses=150 + 17 * len(name),
                                     scale=8)
        run_campaign(
            spec, seeds, jobs=1,
            journal_path=directory / f"{name}.journal",
            experiment=experiment,
        )

    def test_directory_renders_multi_campaign_table(
        self, tmp_path, capsys
    ):
        jobs = tmp_path / "jobs"
        self.make_journal(jobs, "alpha", [1, 2], "E13")
        self.make_journal(jobs, "beta", [3, 4, 5], "E13")
        assert main(["status", str(jobs)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert "campaign" in lines[0]  # header row
        assert len(lines) == 3  # header + one row per journal
        assert "2/2" in out and "3/3" in out
        assert out.count("done") == 2

    def test_directory_order_is_deterministic(self, tmp_path, capsys):
        jobs = tmp_path / "jobs"
        for name in ("zeta", "alpha", "midl"):
            self.make_journal(jobs, name, [7], "E13")
        assert main(["status", str(jobs)]) == 0
        first = capsys.readouterr().out
        assert main(["status", str(jobs)]) == 0
        assert capsys.readouterr().out == first

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        (tmp_path / "jobs").mkdir()
        assert main(["status", str(tmp_path / "jobs")]) == 2
        assert "no *.journal" in capsys.readouterr().err

    def test_single_journal_path_still_works(self, tmp_path, capsys):
        jobs = tmp_path / "jobs"
        self.make_journal(jobs, "solo", [9, 10], "E13")
        assert main(["status", str(jobs / "solo.journal")]) == 0
        assert "2/2 seeds done" in capsys.readouterr().out

    def test_states_done_failed_running(self, tmp_path):
        jobs = tmp_path / "jobs"
        spec = BenignReplicationSpec(accesses=150, scale=8)
        self.make_journal(jobs, "a-done", [1], "E13")
        run_campaign(
            CrashingSpec(spec=spec, crash_seeds=(2,), mode="raise"),
            [1, 2], jobs=1, policy=SupervisorPolicy(max_retries=0),
            journal_path=jobs / "b-failed.journal",
        )
        running = CampaignJournal.create(
            jobs / "c-running.journal", spec, [1, 2], "E13"
        )
        running.record(1, spec(1))
        running.close()
        code, out = run_cli(["status", str(jobs)])
        assert code == 0
        states = [line.split()[2] for line in out.splitlines()[1:]]
        assert states == ["done", "failed", "running"]


class TestFinishedCampaign:
    """A 4-seed, two-worker ``repro replicate --journal`` campaign."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("campaign")
        journal = directory / "x.journal"
        code, out = run_cli([
            "replicate", "E10", "--seeds", "4", "--jobs", "2",
            "--scale", "128", "--no-cache", "--journal", str(journal),
        ])
        assert code == 0
        return journal, out

    def test_the_journal_is_the_only_file(self, campaign):
        journal, _ = campaign
        assert list(journal.parent.iterdir()) == [journal]

    def test_journal_records_carry_worker_metrics(self, campaign):
        journal, _ = campaign
        snapshot = load_journal(journal)
        assert sorted(snapshot.worker_metrics) == snapshot.header.seeds
        for metrics in snapshot.worker_metrics.values():
            assert metrics["mc.acts"] > 0
            assert "mc.ref_bursts" in metrics

    def test_status_prints_progress_metrics_and_aggregates(self, campaign):
        journal, replicate_out = campaign
        code, first = run_cli(["status", str(journal)])
        assert code == 0
        assert "E10 campaign" in first and "4/4 seeds done" in first
        assert "    mc.acts = " in first
        assert "failed:    0" in first and "pending:   0" in first
        assert aggregate_lines(first) == aggregate_lines(replicate_out)
        assert aggregate_lines(first)
        code, second = run_cli(["status", str(journal)])
        assert code == 0 and second == first


class TestStaleFailure:
    """A seed that failed, then completed on ``--resume``, reads done."""

    def test_failed_then_resumed_seed_reads_as_done(self, tmp_path):
        journal = tmp_path / "c.journal"
        spec = CrashingSpec(
            spec=BenignReplicationSpec(accesses=150, scale=8),
            crash_seeds=(102,), mode="raise",
            marker_dir=str(tmp_path / "markers"),
        )
        broke = run_campaign(
            spec, [101, 102, 103], jobs=1,
            policy=SupervisorPolicy(max_retries=0),
            journal_path=journal,
        )
        assert set(broke.failures) == {102}
        code, before = run_cli(["status", str(journal)])
        assert code == 0
        assert "2/3 seeds done" in before
        assert "failed:    1" in before
        assert "seed 102 after 1 attempt: error: InjectedWorkerError" in before
        assert "(partial: 2/3 seeds)" in before

        code, _ = run_cli([
            "replicate", "--resume", str(journal), "--jobs", "1",
        ])
        assert code == 0
        code, after = run_cli(["status", str(journal)])
        assert code == 0
        assert "3/3 seeds done" in after
        assert "failed:    0" in after
        assert "InjectedWorkerError" not in after
        assert load_journal(journal).failures == {}


class TestJournalWithoutLifecycleFields:
    """A journal as written before result lines carried ``t``,
    ``attempts`` and ``cached`` (and before failure lines existed)."""

    SPEC = BenignReplicationSpec(accesses=200, scale=8)
    SEEDS = [101, 102, 103]

    def write_old_journal(self, path, done):
        header = {
            "experiment": "E13",
            "fingerprint": campaign_fingerprint(self.SPEC, self.SEEDS, "E13"),
            "kind": "repro-campaign-journal",
            "schema": 1,
            "seeds": self.SEEDS,
            "spec": spec_signature(self.SPEC),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for seed in done:
            envelope = CapturedScenario(self.SPEC)(seed)
            lines.append(json.dumps(
                {"metrics": envelope["metrics"], "result": envelope["result"],
                 "seed": seed},
                sort_keys=True,
            ))
        path.write_text("\n".join(lines) + "\n")

    def test_loads_renders_and_resumes_to_identical_aggregates(
        self, tmp_path
    ):
        journal = tmp_path / "old.journal"
        self.write_old_journal(journal, self.SEEDS[:2])
        snapshot = load_journal(journal)
        assert sorted(snapshot.completed) == self.SEEDS[:2]
        assert snapshot.pending() == [103]
        assert snapshot.header.t is None and snapshot.elapsed_s is None
        assert snapshot.retries == {} and snapshot.cached == set()

        code, out = run_cli(["status", str(journal)])
        assert code == 0
        assert "2/3 seeds done" in out and "pending:   1 (103)" in out
        assert "elapsed:" not in out and "ETA:" not in out
        assert "    mc.acts = " in out

        resumed = run_campaign(
            self.SPEC, self.SEEDS, jobs=1, journal_path=journal,
            resume=True, experiment="E13",
        )
        assert resumed.complete and resumed.resumed == 2
        clean = run_campaign(self.SPEC, self.SEEDS, jobs=1)
        assert resumed.aggregates == clean.aggregates
        code, out = run_cli(["status", str(journal)])
        assert code == 0 and "3/3 seeds done" in out
