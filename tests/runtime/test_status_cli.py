"""``repro status`` pointed at a directory of campaign journals: the
deterministic multi-campaign table, and the single-journal path beside
it."""

from repro.cli import main
from repro.runtime.campaign import run_campaign


class TestStatusDirectory:
    def make_journal(self, directory, name, seeds, experiment):
        from repro.analysis.parallel import BenignReplicationSpec

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
