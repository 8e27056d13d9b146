"""``repro inspect`` must summarize huge traces at bounded memory.

The CLI pipes ``iter_jsonl`` → ``summarize_events`` so a multi-gigabyte
campaign trace never has to fit in RAM.  This test writes a trace far
larger than any reasonable working set (48k ``act`` lines plus 24k
``row_conflict`` lines), runs the streaming pipeline under
``tracemalloc``, and pins two regressions:

* the streaming peak stays a small fraction of the materialized trace
  (someone reintroducing ``read_jsonl``/``list(...)`` in the pipeline
  blows the bound immediately);
* a torn final line — the signature of a SIGKILL'd writer — is
  tolerated by the streaming reader just like the batch one.
"""

import json
import tracemalloc

from repro.obs import iter_jsonl, read_jsonl
from repro.obs.inspect import summarize_events

ACTS = 48_000
CONFLICTS = ACTS // 2
EVENTS = ACTS + CONFLICTS


def _write_trace(path):
    encode = json.JSONEncoder(sort_keys=True).encode
    with path.open("w") as stream:
        for index in range(ACTS):
            event = {
                "kind": "act",
                "t": 10 * index,
                "channel": 0,
                "rank": 0,
                "bank": index % 8,
                "row": index % 512,
                "line": index % 32,
                "domain": index % 4,
                "dma": False,
            }
            stream.write(encode(event) + "\n")
            if index % 2 == 0:
                event["kind"] = "row_conflict"
                event["closed_row"] = (index + 1) % 512
                del event["dma"]
                stream.write(encode(event) + "\n")


def _streaming_summary(path):
    return summarize_events(iter_jsonl(path))


def test_streaming_inspect_is_memory_bounded(tmp_path):
    trace = tmp_path / "big-trace.jsonl"
    _write_trace(trace)
    file_bytes = trace.stat().st_size
    assert file_bytes > 4 * 1024 * 1024  # the trace is genuinely large

    tracemalloc.start()
    try:
        summary = _streaming_summary(trace)
        _, streaming_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert summary.counts_by_kind["act"] == ACTS
    assert summary.counts_by_kind["row_conflict"] == CONFLICTS
    assert summary.total_events == EVENTS

    # The materialized trace dwarfs the streaming peak: events alone
    # cost hundreds of bytes each, so give the full list a lower bound
    # instead of measuring a second (slow) tracemalloc pass.
    materialized_floor = file_bytes  # parsed objects cost >= the text
    assert streaming_peak < materialized_floor / 4, (
        f"streaming summarize peaked at {streaming_peak} bytes for a "
        f"{file_bytes}-byte trace — the pipeline is buffering the file"
    )
    # Absolute backstop: a handful of MB regardless of trace size.
    assert streaming_peak < 8 * 1024 * 1024


def test_streaming_reader_tolerates_torn_final_line(tmp_path):
    trace = tmp_path / "torn-trace.jsonl"
    _write_trace(trace)
    with trace.open("a") as stream:
        stream.write('{"kind": "act", "t": 12, "chan')  # SIGKILL mid-write

    streamed = list(iter_jsonl(trace))
    assert len(streamed) == EVENTS
    assert streamed == read_jsonl(trace)
    summary = _streaming_summary(trace)
    assert summary.counts_by_kind["act"] == ACTS
