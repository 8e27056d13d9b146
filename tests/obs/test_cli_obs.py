"""CLI toolchain: ``repro trace`` records, ``repro inspect`` renders."""

from dataclasses import dataclass

from repro.analysis import parallel
from repro.cli import main
from repro.obs import ACT, ACT_INTERRUPT, BIT_FLIP, read_jsonl


def _trace(tmp_path, capsys, *extra):
    out = tmp_path / "trace.jsonl"
    code = main(
        ["trace", "E4", "--scale", "64", "-o", str(out), *extra]
    )
    captured = capsys.readouterr()
    return code, out, captured


def test_trace_records_an_armed_attack_run(tmp_path, capsys):
    code, out, captured = _trace(tmp_path, capsys)
    assert code == 0
    assert "events ->" in captured.out
    events = read_jsonl(out)
    kinds = {event.kind for event in events}
    # counters are armed by default, so the §4.2 interrupt stream and
    # the flip timeline are both non-empty
    assert {ACT, ACT_INTERRUPT, BIT_FLIP} <= kinds


def test_trace_no_arm_keeps_platform_default(tmp_path, capsys):
    code, out, _ = _trace(tmp_path, capsys, "--no-arm")
    assert code == 0
    kinds = {event.kind for event in read_jsonl(out)}
    assert ACT_INTERRUPT not in kinds  # threshold stays at 1 << 20


_TRACED_SCALES = []


@dataclass(frozen=True)
class ScaleProbe:
    """Stands in for a replication spec; records the scale it ran at."""

    scale: int = 8

    def __call__(self, seed):
        _TRACED_SCALES.append(self.scale)
        return {}


def test_trace_keeps_the_experiments_scale(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(parallel.REPLICATION_SPECS, "E13", ScaleProbe())
    out = str(tmp_path / "t.jsonl")
    _TRACED_SCALES.clear()
    assert main(["trace", "E13", "-o", out]) == 0
    assert main(["trace", "E13", "--scale", "16", "-o", out]) == 0
    assert _TRACED_SCALES == [8, 16]


def test_inspect_renders_deterministically(tmp_path, capsys):
    _, out, _ = _trace(tmp_path, capsys)

    assert main(["inspect", str(out)]) == 0
    first = capsys.readouterr().out
    assert main(["inspect", str(out)]) == 0
    second = capsys.readouterr().out

    assert first == second
    assert "top aggressor rows" in first
    assert "ACT_COUNT interrupt timeline" in first
    assert "bit-flip timeline" in first
    assert "ACTs by domain" in first


def test_inspect_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_inspect_rejects_corrupt_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["inspect", str(bad)]) == 2
