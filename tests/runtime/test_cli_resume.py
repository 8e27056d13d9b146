"""CLI surface of the resilient runtime: --journal/--resume/--timeout,
interrupt salvage, and exit codes."""

import pytest

from repro.analysis.parallel import REPLICATION_SPECS
from repro.cli import EXIT_INTERRUPTED, main
from repro.runtime import CampaignInterrupted, CampaignResult


def aggregate_lines(output):
    """The deterministic payload lines (describe() output)."""
    return [
        line for line in output.splitlines()
        if line.startswith("  ") and "95% CI" in line
    ]


class TestJournalFlag:
    def test_journal_written_and_resume_is_bit_identical(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "c.jsonl"
        base = ["replicate", "E13", "--seeds", "2", "--scale", "8",
                "--jobs", "2"]
        assert main(base) == 0
        clean_out = capsys.readouterr().out

        assert main(base + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        assert journal.exists()
        assert len(journal.read_text().splitlines()) == 3  # header + 2

        # resume of a complete journal: skips every seed, same numbers
        assert main(["replicate", "--resume", str(journal)]) == 0
        resumed_out = capsys.readouterr().out
        assert "[resumed: 2 seeds from journal]" in resumed_out
        assert aggregate_lines(resumed_out) == aggregate_lines(clean_out)

    def test_resume_completes_a_partial_journal(self, capsys, tmp_path):
        journal = tmp_path / "c.jsonl"
        base = ["replicate", "E13", "--seeds", "3", "--scale", "8",
                "--jobs", "1"]
        assert main(base) == 0
        clean_out = capsys.readouterr().out

        assert main(base + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        # drop the last record to simulate a kill between seeds
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")

        assert main(["replicate", "--resume", str(journal)]) == 0
        resumed_out = capsys.readouterr().out
        assert "[resumed: 2 seeds from journal]" in resumed_out
        assert aggregate_lines(resumed_out) == aggregate_lines(clean_out)

    def test_resume_missing_journal_is_usage_error(self, capsys, tmp_path):
        assert main(
            ["replicate", "--resume", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "no journal" in capsys.readouterr().err

    def test_experiment_required_without_resume(self, capsys):
        assert main(["replicate"]) == 2
        assert "experiment is required" in capsys.readouterr().err

    def test_supervision_flags_accepted(self, capsys):
        assert main([
            "replicate", "E13", "--seeds", "1", "--scale", "8",
            "--timeout", "60", "--max-retries", "1",
        ]) == 0

    def test_invalid_timeout_rejected(self, capsys):
        assert main([
            "replicate", "E13", "--seeds", "1", "--scale", "8",
            "--timeout", "-1",
        ]) == 2
        assert "timeout" in capsys.readouterr().err


class TestInterruptSalvage:
    def test_interrupt_salvages_and_hints_resume(
        self, capsys, monkeypatch, tmp_path
    ):
        journal = tmp_path / "c.jsonl"

        def fake_run_campaign(spec, seeds, **kwargs):
            partial = CampaignResult(
                seeds=list(seeds),
                completed={seeds[0]: spec(seeds[0])},
                journal_path=journal,
            )
            raise CampaignInterrupted(partial, journal)

        monkeypatch.setattr(
            "repro.runtime.run_campaign", fake_run_campaign
        )
        code = main([
            "replicate", "E13", "--seeds", "3", "--scale", "8",
            "--journal", str(journal),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "(partial: 1/3 seeds)" in captured.out
        assert aggregate_lines(captured.out)  # salvaged aggregates shown
        assert "resume with" in captured.err
        assert str(journal) in captured.err
        assert "Traceback" not in captured.err

    def test_interrupt_without_journal_suggests_one(
        self, capsys, monkeypatch
    ):
        def fake_run_campaign(spec, seeds, **kwargs):
            partial = CampaignResult(seeds=list(seeds), completed={})
            raise CampaignInterrupted(partial, None)

        monkeypatch.setattr(
            "repro.runtime.run_campaign", fake_run_campaign
        )
        code = main(["replicate", "E13", "--seeds", "2", "--scale", "8"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "--journal" in captured.err

    def test_faults_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(spec):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.faults.diff.run_matrix", interrupted)
        code = main(["faults", "--scale", "64"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err


class TestFailureReporting:
    def test_permanent_failures_exit_one_with_summary(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.runtime import SeedFailure

        journal = tmp_path / "c.jsonl"

        def fake_run_campaign(spec, seeds, **kwargs):
            return CampaignResult(
                seeds=list(seeds),
                completed={s: spec(s) for s in seeds[:-1]},
                failures={
                    seeds[-1]: SeedFailure(
                        seed=seeds[-1], attempts=3, reason="worker died"
                    )
                },
                journal_path=journal,
            )

        monkeypatch.setattr(
            "repro.runtime.run_campaign", fake_run_campaign
        )
        code = main([
            "replicate", "E13", "--seeds", "3", "--scale", "8",
            "--journal", str(journal),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed after 3 attempts" in captured.err
        assert "--resume" in captured.err


class TestScaleDefault:
    """Without ``--scale`` a campaign runs at its experiment's own
    scale, which is what the journal header and cache key record."""

    def spec_for(self, monkeypatch, argv):
        specs = []

        def fake_run_campaign(spec, seeds, **kwargs):
            specs.append(spec)
            return CampaignResult(
                seeds=list(seeds), completed={s: {"x": s} for s in seeds}
            )

        monkeypatch.setattr("repro.runtime.run_campaign", fake_run_campaign)
        assert main(argv) == 0
        return specs[0]

    def test_replicate_keeps_the_experiments_scale(self, capsys, monkeypatch):
        spec = self.spec_for(monkeypatch, ["replicate", "E13", "--seeds", "2"])
        assert spec == REPLICATION_SPECS["E13"] and spec.scale == 8
        spec = self.spec_for(
            monkeypatch, ["replicate", "E13", "--seeds", "2", "--scale", "16"]
        )
        assert spec.scale == 16
