"""The trace bus and its sinks.

``TraceBus`` is the single object hot paths talk to.  The contract that
keeps the instrumented-off request path inside benchmark noise: emitters
*must* guard with the bus's ``enabled`` flag (one attribute load and a
bool check) and only then build the event.  With the default
:class:`NullSink` nothing is ever constructed.

Three sinks cover the use cases:

* :class:`NullSink`       — the default; tracing disabled;
* :class:`RingBufferSink` — bounded in-memory buffer for tests and
  interactive inspection;
* :class:`JsonlSink`      — one JSON object per line on disk, the format
  ``python -m repro inspect`` consumes and :func:`read_jsonl` loads
  losslessly.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Union

from repro.obs.events import ACT, ROW_CONFLICT, THROTTLE_STALL, TraceEvent


class NullSink:
    """Discard everything (the disabled state; emitters never reach it)."""

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - unused
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keep the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        self.events_written = 0
        self.dropped = 0

    def write(self, event: TraceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)
        self.events_written += 1

    def close(self) -> None:
        pass

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._buffer)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._buffer:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


#: One shared encoder for every sink: ``json.dumps(obj, sort_keys=True)``
#: constructs a fresh ``JSONEncoder`` on *every* call, which is pure
#: overhead on the traced hot path (one line per event).  The cached
#: bound method emits byte-identical output.
_ENCODE_SORTED = json.JSONEncoder(sort_keys=True).encode


class JsonlSink:
    """Append events to a JSONL file, one event per line.

    Lines are written with sorted keys so a fixed-seed run produces a
    byte-identical trace file.  The file is opened lazily on the first
    event and must be :meth:`close`\\ d (the ``observe`` context manager
    does this) before another process reads it.

    The sink is crash-consistent: a single writer appends sequential
    ``write`` calls, so whatever reaches the file is a prefix of the
    event stream — a killed process leaves at most one torn *final*
    line (which :func:`read_jsonl` tolerates), never an interleaved or
    mid-file corruption.  The stream is block-buffered (per-line
    flushing costs a syscall per event), so a kill can
    also lose recently buffered complete lines; ``close`` flushes and
    fsyncs so a clean shutdown is durable on disk.  Watching a campaign
    live goes through its journal, which fsyncs per line — not through
    trace sinks.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._stream = None
        self.events_written = 0
        self._counts: Dict[str, int] = {}

    def write(self, event: TraceEvent) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("w")
        self._stream.write(
            _ENCODE_SORTED(event.as_json_dict()) + "\n"
        )
        self.events_written += 1
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.flush()
                os.fsync(self._stream.fileno())
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            self._stream.close()
            self._stream = None

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(self._counts)


class CountingSink:
    """Count events by kind without storing them; optionally tee into an
    inner sink.  The invariant layer uses this to reconcile trace-event
    counts against architectural counters at negligible memory cost —
    a :class:`RingBufferSink` would silently drop the oldest events and
    make conservation checks lie on long runs."""

    def __init__(self, inner: Optional["TraceSink"] = None) -> None:
        self.inner = inner
        self.events_written = 0
        self._counts: Dict[str, int] = {}

    def write(self, event: TraceEvent) -> None:
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        self.events_written += 1
        if self.inner is not None:
            self.inner.write(event)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(self._counts)

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)


class SamplingSink:
    """Deterministic 1-in-``every`` ACT sampler in front of any sink.

    Element-level sampling with a global ACT index: ACT number ``k``
    (counted across the whole run) is kept iff ``k % every == phase``
    where ``phase = seed % every`` — same seed, same trace, always.  A
    kept ACT keeps its satellite ``row_conflict``/``throttle_stall``
    events; **every other kind passes through unsampled** (``bit_flip``
    is ground truth, the others are rare).
    """

    def __init__(
        self, inner: "TraceSink", every: int, seed: int = 0
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.inner = inner
        self.every = every
        self.phase = seed % every
        self.acts_seen = 0
        self.acts_kept = 0
        self._keep_last = False

    def write(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == ACT:
            keep = (self.acts_seen % self.every) == self.phase
            self.acts_seen += 1
            self._keep_last = keep
            if keep:
                self.acts_kept += 1
                self.inner.write(event)
        elif kind == ROW_CONFLICT or kind == THROTTLE_STALL:
            if self._keep_last:
                self.inner.write(event)
        else:
            self.inner.write(event)

    def close(self) -> None:
        self.inner.close()

    def counts_by_kind(self) -> Dict[str, int]:
        inner_counts = getattr(self.inner, "counts_by_kind", None)
        return inner_counts() if inner_counts is not None else {}


#: anything with write(event) + close()
TraceSink = Union[
    NullSink, RingBufferSink, JsonlSink, CountingSink, SamplingSink
]


class TraceBus:
    """Event fan-in point shared by one simulated platform.

    ``enabled`` is a plain attribute, not a property, so hot loops can
    hoist ``trace = self.trace`` and pay one bool check per request.
    """

    __slots__ = ("sink", "enabled", "emitted")

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink: TraceSink = NullSink()
        self.enabled = False
        self.emitted = 0
        if sink is not None:
            self.set_sink(sink)

    def set_sink(self, sink: Optional[TraceSink]) -> None:
        """Install (or, with ``None``/:class:`NullSink`, remove) a sink."""
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)

    def emit(self, kind: str, time_ns: int, **data: object) -> None:
        """Write one event.  Callers must have checked ``enabled``; an
        unguarded call on a disabled bus is harmless but wasteful."""
        self.sink.write(TraceEvent(kind=kind, time_ns=time_ns, data=data))
        self.emitted += 1


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL trace back into events (inverse of :class:`JsonlSink`),
    with :func:`iter_jsonl`'s torn-final-line tolerance."""
    return list(iter_jsonl(path))


def iter_jsonl(path: Union[str, Path]) -> Iterable[TraceEvent]:
    """Stream the events of a JSONL trace, one in memory at a time.

    A torn *final* line — the signature a SIGKILL leaves on a
    line-buffered writer — is silently dropped so ``repro inspect``
    still works on the trace of a crashed run.  Corruption anywhere
    else in the file, or a file with no valid line at all, is still an
    error.
    """
    torn: Optional[str] = None
    any_valid = False
    with Path(path).open() as stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise ValueError(torn)
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                torn = f"{path}:{line_number}: not valid JSON: {error}"
                continue
            any_valid = True
            yield TraceEvent.from_json_dict(payload)
    if torn is not None and not any_valid:
        raise ValueError(torn)
