"""Trace record and replay: persist access streams for repeatable runs.

A trace is a text file, one access per line::

    <time_ns> <asid> <virtual_line> <R|W|D>

``D`` marks a DMA transfer (physical addressing is resolved at replay
time through the owning domain's current mapping, so a trace survives
defense-driven page remaps the way a real device reprogrammed by the OS
would — with the *virtual* buffer, not a stale physical address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System


@dataclass(frozen=True)
class TraceRecord:
    """One access in a trace."""

    time_ns: int
    asid: int
    virtual_line: int
    kind: str  # "R" | "W" | "D"

    def __post_init__(self) -> None:
        if self.kind not in ("R", "W", "D"):
            raise ValueError(f"kind must be R, W or D, got {self.kind!r}")
        if self.time_ns < 0 or self.virtual_line < 0:
            raise ValueError("time_ns and virtual_line must be >= 0")

    def to_line(self) -> str:
        return f"{self.time_ns} {self.asid} {self.virtual_line} {self.kind}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed trace line: {line!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]), parts[3])


def write_trace(records: Iterable[TraceRecord], stream: TextIO) -> int:
    """Serialize records; returns the count written."""
    count = 0
    for record in records:
        stream.write(record.to_line() + "\n")
        count += 1
    return count


def read_trace(stream: TextIO) -> Iterator[TraceRecord]:
    """Parse records, skipping blank lines and ``#`` comments."""
    for line in stream:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield TraceRecord.from_line(stripped)


class TraceReplayer:
    """Replay a trace against a system with live domain handles."""

    def __init__(self, system: "System", handles: Dict[int, "DomainHandle"]) -> None:
        self.system = system
        self.handles = handles
        self.replayed = 0

    def replay(self, records: Iterable[TraceRecord]) -> int:
        """Execute every record; returns the finish time.  Record
        timestamps are lower bounds — contention can only push accesses
        later, never earlier."""
        now = 0
        for record in records:
            handle = self.handles.get(record.asid)
            if handle is None:
                raise KeyError(f"trace references unknown ASID {record.asid}")
            at = max(now, record.time_ns)
            if record.kind == "D":
                physical = handle.physical_line(record.virtual_line)
                completed = self.system.dma_engine(handle).transfer(physical, at)
                now = completed.ready_at_ns
            elif record.kind == "W":
                now = self.system.core.store(
                    handle.asid, record.virtual_line, at
                ).done_at_ns
            else:
                now = self.system.core.load(
                    handle.asid, record.virtual_line, at
                ).done_at_ns
            self.replayed += 1
        return now
