"""Per-bank dynamic state: the row buffer and timing availability.

A bank processes one command at a time (§4.1 — the reason interleaving
exists) and owns one row buffer shared by all of its subarrays (§2.1).
The memory controller consults ``busy_until`` for scheduling, which is how
bank-level parallelism emerges: requests to different banks overlap, while
requests to one bank serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DramTimings


@dataclass
class BankState:
    """Mutable state of one DRAM bank."""

    timings: DramTimings
    open_row: Optional[int] = None
    busy_until: int = 0  # ns at which the bank can accept the next command
    last_act_at: int = -(10**18)  # enforce tRC between ACTs

    # statistics
    acts: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0  # bank was precharged
    row_conflicts: int = 0  # another row occupied the buffer

    def classify_access(self, row: int) -> str:
        """How a RD/WR to ``row`` would find the row buffer."""
        if self.open_row == row:
            return "hit"
        if self.open_row is None:
            return "miss"
        return "conflict"

    def access(self, row: int, now: int) -> int:
        """Perform the command sequence for one RD/WR to ``row``.

        Issues the implied PRE/ACT as needed, updates buffer state and
        statistics, and returns the time at which the requested data is
        available.  The bank frees up one burst slot (tBL) after the
        column command, so row-buffer hits to the same bank *pipeline* at
        burst rate while the data latency stays tCL — matching real DDR,
        where consecutive CAS commands overlap.  ACTs remain serialized by
        tRC, which is the physical rate limit hammering runs into.
        """
        timings = self.timings
        busy = self.busy_until
        start = now if now >= busy else busy
        open_row = self.open_row
        if open_row == row:  # hit
            self.row_hits += 1
            self.busy_until = start + timings.tBL
            return start + timings.tCL
        if open_row is None:  # miss
            self.row_misses += 1
            act_at = start
        else:  # conflict
            self.row_conflicts += 1
            self.precharges += 1
            act_at = start + timings.tRP
        earliest = self.last_act_at + timings.tRC
        if act_at < earliest:
            act_at = earliest
        self.open_row = row
        self.acts += 1
        self.last_act_at = act_at
        tRCD = timings.tRCD
        self.busy_until = act_at + tRCD + timings.tBL
        return act_at + tRCD + timings.tCL

    def activate(self, row: int, now: int) -> int:
        """Explicit ACT (used by targeted refresh); returns completion time."""
        start = max(now, self.busy_until)
        if self.open_row is not None:
            self.precharges += 1
            start += self.timings.tRP
        start = self._respect_trc(start)
        self._activate(row, start)
        ready = start + self.timings.tRCD
        self.busy_until = ready
        return ready

    def precharge(self, now: int) -> int:
        """Explicit PRE; closes the open row.  Returns completion time."""
        start = max(now, self.busy_until)
        if self.open_row is not None:
            self.precharges += 1
            self.open_row = None
            start += self.timings.tRP
        self.busy_until = start
        return start

    def block_for_refresh(self, now: int) -> int:
        """The bank participates in a REF burst: unavailable for tRFC and
        left precharged.  Returns when the bank frees up."""
        start = max(now, self.busy_until)
        if self.open_row is not None:
            self.precharges += 1
            self.open_row = None
        self.busy_until = start + self.timings.tRFC
        return self.busy_until

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _respect_trc(self, start: int) -> int:
        """Delay ``start`` until tRC has elapsed since the previous ACT —
        the physical rate limit on hammering one bank."""
        earliest = self.last_act_at + self.timings.tRC
        return max(start, earliest)

    def _activate(self, row: int, at: int) -> None:
        self.open_row = row
        self.acts += 1
        self.last_act_at = at

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_conflicts

    @property
    def row_hit_rate(self) -> float:
        total = self.accesses
        return self.row_hits / total if total else 0.0
