"""Tests for the command-line interface."""

import pytest

from repro.cli import DEFENSE_FACTORIES, main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E13" in out
        assert "subarray-isolation" in out
        assert "double-sided" in out


class TestRun:
    def test_runs_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out

    def test_lowercase_accepted(self, capsys):
        assert main(["run", "e2"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2

    def test_scale_defaults_to_each_experiments_own(self, monkeypatch, capsys):
        from repro.analysis.experiments import EXPERIMENTS

        calls = []

        class Outcome:
            verdict = True

            def render(self):
                return ""

        def stub(**kwargs):
            calls.append(kwargs)
            return Outcome()

        monkeypatch.setitem(EXPERIMENTS, "E13", stub)
        assert main(["run", "E13"]) == 0
        assert main(["run", "E13", "--scale", "16"]) == 0
        assert calls == [{}, {"scale": 16}]


class TestAttack:
    def test_legacy_attack_flips(self, capsys):
        code = main([
            "attack", "--platform", "legacy",
            "--pattern", "double-sided", "--expect-flips", "true",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-domain flips:" in out

    def test_isolated_attack_denied(self, capsys):
        code = main([
            "attack", "--platform", "proposed",
            "--defense", "subarray-isolation", "--expect-flips", "false",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan viable:        False" in out

    def test_missing_primitive_is_friendly(self, capsys):
        code = main([
            "attack", "--platform", "legacy",
            "--defense", "targeted-refresh",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "primitive" in err

    def test_bank_partition_gets_linear_mapping(self, capsys):
        code = main([
            "attack", "--platform", "legacy",
            "--defense", "bank-partition",
            "--contiguous", "--expect-flips", "false",
        ])
        assert code == 0

    def test_expect_flips_mismatch_fails(self, capsys):
        code = main([
            "attack", "--platform", "legacy",
            "--pattern", "double-sided", "--expect-flips", "false",
        ])
        assert code == 1

    def test_dma_flag(self, capsys):
        code = main([
            "attack", "--platform", "legacy", "--dma",
            "--windows", "0.5", "--expect-flips", "true",
        ])
        assert code == 0


class TestFactories:
    @pytest.mark.parametrize("name", sorted(DEFENSE_FACTORIES))
    def test_factories_construct(self, name):
        defense = DEFENSE_FACTORIES[name]()
        assert defense.name


class TestReplicateCommand:
    def test_replicate_e13(self, capsys):
        code = main([
            "replicate", "E13", "--seeds", "2", "--jobs", "2", "--scale", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "E13 x 2 seeds" in out
        assert "requests" in out

    def test_lowercase_experiment(self, capsys):
        assert main(["replicate", "e13", "--seeds", "1", "--scale", "8"]) == 0


class TestReportHelpers:
    def test_generate_report_subset(self):
        from repro.analysis.report import generate_report

        seen = []
        markdown = generate_report(["E2"], progress=seen.append)
        assert seen == ["E2"]
        assert "## E2" in markdown
        assert "reproduced" in markdown

    def test_unknown_id_rejected(self):
        from repro.analysis.report import generate_report

        with pytest.raises(KeyError):
            generate_report(["E99"])
