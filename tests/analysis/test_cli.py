"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.defenses.registry import DEFENSE_BY_NAME

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


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
    @pytest.mark.parametrize("name", sorted(DEFENSE_BY_NAME))
    def test_factories_construct(self, name):
        defense = DEFENSE_BY_NAME[name]()
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


class TestReport:
    """``repro report`` re-renders a document's artefact blocks in place."""

    @staticmethod
    def _only(monkeypatch, runners):
        """Narrow the registry to ``runners``, so a one-block document
        is complete."""
        monkeypatch.setattr(
            "repro.analysis.report.registry", lambda: dict(runners)
        )

    @staticmethod
    def _document(path, block):
        path.write_text(
            "# E2 only\n\nProse the report keeps.\n\n" + block
            + "\nMore prose.\n",
            encoding="utf-8",
        )

    def test_e2_block_comes_back_byte_identical(self, monkeypatch, tmp_path):
        from repro.analysis.experiments import run_e2

        committed = EXPERIMENTS_MD.read_text(encoding="utf-8")
        start = committed.index("```\n### E2:")
        block = committed[start:committed.index("```\n", start + 3) + 4]
        self._only(monkeypatch, {"E2": run_e2})
        path = tmp_path / "doc.md"
        self._document(path, block)
        expected = path.read_text(encoding="utf-8")
        assert main(["report", "-o", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == expected
        # a stale block is rewritten, not just left alone
        self._document(path, "```\n### E2: stale\n```\n")
        assert main(["report", "-o", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("block, message", [
        pytest.param("```\n### E99: no such id\n```\n", "unknown id E99",
                     id="unknown-id"),
        pytest.param("```\n### E2: only E2\n```\n", "no block for E1, E3,",
                     id="missing-block"),
    ])
    def test_unknown_id_or_missing_block_exits_2(
        self, tmp_path, capsys, block, message
    ):
        path = tmp_path / "doc.md"
        self._document(path, block)
        before = path.read_text(encoding="utf-8")
        assert main(["report", "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert path.read_text(encoding="utf-8") == before

    def test_false_verdict_exits_1(self, monkeypatch, tmp_path, capsys):
        from repro.analysis.experiments import ExperimentOutcome

        def refuted():
            return ExperimentOutcome("E2", "stub", "a claim that fails")

        self._only(monkeypatch, {"E2": refuted})
        path = tmp_path / "doc.md"
        self._document(path, "```\n### E2: stale\n```\n")
        assert main(["report", "-o", str(path)]) == 1
        assert "NOT reproduced: E2" in capsys.readouterr().err
        assert "### E2: stub" in path.read_text(encoding="utf-8")
