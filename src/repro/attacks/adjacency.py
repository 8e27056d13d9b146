"""Row-adjacency and subarray-boundary inference by hammer templating.

§2.1/§4.1: DRAM occasionally remaps logically-adjacent rows to different
internal locations, and vendors disclose neither the remaps nor the
subarray boundaries.  Prior work infers both from software by using the
success or failure of Rowhammer itself: hammer rows you own, read your
own memory back, and reason from where flips did — and did not — appear.

``AdjacencyProber`` reproduces that methodology inside the simulator,
scanning a contiguous self-owned row range with *double-sided pairs*
``(r, r+2)``:

* flips at the logically expected rows (between/next to the pair)
  confirm plain adjacency;
* flips at logically *far* rows reveal that one of the aggressors is
  internally remapped next to someone else's neighbourhood;
* missing expected flips mark either a remapped victim or a subarray
  boundary (disturbance does not cross subarrays), disambiguated by
  whether far flips showed up for the same pair.

The prober only uses attacker-legal observations: flips landing in its
own memory (reading your own memory back is always allowed) and command
timing.  Between probes it idles for one refresh window so prior
pressure drains — the same pacing real templating tools use.

Outputs feed two consumers: the subarray-isolation defense's remap audit
(§4.1) and experiment E11, which scores accuracy against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

RowKey = Tuple[int, int, int, int]


@dataclass
class ProbeReport:
    """What templating one bank revealed."""

    #: hammered pair (low_row, high_row) -> logical rows observed to flip
    observations: Dict[Tuple[int, int], Set[int]] = field(default_factory=dict)
    #: logical rows whose flip pattern deviates from plain adjacency
    suspected_remapped: Set[int] = field(default_factory=set)
    #: logical rows r such that a subarray boundary likely sits in (r, r+1]
    suspected_boundaries: Set[int] = field(default_factory=set)
    hammer_accesses: int = 0

    def inferred_remap_pairs(self, bank_index: int) -> List[Tuple[int, int]]:
        """(bank_index, logical_row) pairs to feed the §4.1 remap audit."""
        return [(bank_index, row) for row in sorted(self.suspected_remapped)]


PROBE_PATTERN = b"\xAA" * 64


class AdjacencyProber:
    """Templates a contiguous, self-owned logical row range in one bank.

    Two observation modes:

    * ``use_data_plane=False`` (default): flips are observed through the
      simulation oracle, filtered to the prober's own memory — fast, and
      equivalent to read-back by construction;
    * ``use_data_plane=True``: the prober *actually* writes a pattern
      into its memory, hammers, reads every line back, and repairs what
      it finds corrupted — byte-for-byte what a real templating tool
      does, with zero oracle access.
    """

    def __init__(
        self,
        system: "System",
        handle: "DomainHandle",
        use_data_plane: bool = False,
    ) -> None:
        self.system = system
        self.handle = handle
        self.use_data_plane = use_data_plane
        # logical row -> one of our virtual lines inside it
        self._line_by_row: Dict[RowKey, int] = {}
        # logical row -> all of our virtual lines inside it (read-back)
        self._lines_by_row: Dict[RowKey, List[int]] = {}
        lines_per_page = handle.lines_per_page
        for virtual_page in range(handle.pages):
            for offset in range(lines_per_page):
                virtual_line = virtual_page * lines_per_page + offset
                physical = handle.physical_line(virtual_line)
                row = system.mapper.line_to_ddr(physical).row_key()
                self._line_by_row.setdefault(row, virtual_line)
                self._lines_by_row.setdefault(row, []).append(virtual_line)
        if use_data_plane:
            for virtual_lines in self._lines_by_row.values():
                for virtual_line in virtual_lines:
                    system.data.write(
                        handle.physical_line(virtual_line), PROBE_PATTERN
                    )

    def owned_rows_in_bank(self, bank_key: Tuple[int, int, int]) -> List[int]:
        return sorted(
            row for (c, r, b, row) in self._line_by_row if (c, r, b) == bank_key
        )

    # ------------------------------------------------------------------
    # The probe
    # ------------------------------------------------------------------

    def probe_bank(
        self,
        bank_key: Tuple[int, int, int],
        hammer_factor: float = 0.75,
    ) -> ProbeReport:
        """Double-sided-scan the owned rows of ``bank_key``.

        Each pair ``(r, r+2)`` is hammered alternately (the alternation
        forces bank conflicts, hence real ACTs) for ``hammer_factor x
        MAC`` iterations *per aggressor*.  The default 0.75 is the
        calibrated sub-critical dose: one aggressor alone cannot flip
        anything (0.75 MAC), but the middle row of an intact pair takes
        both contributions (1.5 MAC) and reliably flips.  A missing
        middle flip therefore means the pair is *not* internally intact:

        * a run of 2 consecutive missing middles brackets a subarray
          boundary (disturbance never crosses it, from either side);
        * a run of 3 centres on a remapped row (it neither receives its
          neighbours' pressure nor delivers its own where expected).

        One refresh window of idle time separates probes so pressure
        from earlier pairs drains.
        """
        report = ProbeReport()
        rows = self.owned_rows_in_bank(bank_key)
        if len(rows) < 3:
            return report
        owned = set(rows)
        mac = self.system.profile.mac
        iterations = max(1, int(mac * hammer_factor))
        now = self.system.controller.stats.busy_until_ns
        for row in rows:
            partner = row + 2
            if partner not in owned:
                continue
            now = self._settle(now)
            self.system.drain_flips()
            line_a = self._line_by_row[bank_key + (row,)]
            line_b = self._line_by_row[bank_key + (partner,)]
            for _ in range(iterations):
                for line in (line_a, line_b):
                    outcome = self.system.core.hammer_access(
                        self.handle.asid, line, now
                    )
                    now = outcome.done_at_ns
                    report.hammer_accesses += 1
            report.observations[(row, partner)] = self._flipped_logical_rows(
                bank_key
            )
        self._analyze(report, rows)
        return report

    # ------------------------------------------------------------------
    # Attacker-legal flip observation
    # ------------------------------------------------------------------

    def _settle(self, now: int) -> int:
        """Idle for one refresh window: the periodic sweep repairs all
        accumulated pressure, isolating the next probe's observations."""
        now += self.system.timings.tREFW + self.system.timings.tREFI
        self.system.controller.advance_to(now)
        return now

    def _flipped_logical_rows(self, bank_key: Tuple[int, int, int]) -> Set[int]:
        """Read-back: which of *our* logical rows in this bank show new
        corruption."""
        if self.use_data_plane:
            return self._read_back(bank_key)
        # Oracle shortcut: flips are recorded against internal rows; the
        # data that actually corrupted lives in the logical row mapped
        # there — which is exactly what a memory read would observe.
        geometry = self.system.geometry
        remapper = self.system.device.remapper
        flipped: Set[int] = set()
        for flip in self.system.drain_flips():
            channel, rank, bank, internal_row = flip.victim
            if (channel, rank, bank) != bank_key:
                continue
            from repro.dram.geometry import DdrAddress

            bank_index = geometry.bank_index(DdrAddress(channel, rank, bank, 0, 0))
            logical = remapper.to_logical(bank_index, internal_row)
            if (channel, rank, bank, logical) in self._line_by_row:
                flipped.add(logical)
        return flipped

    def _read_back(self, bank_key: Tuple[int, int, int]) -> Set[int]:
        """The fully attacker-legal observation: compare every owned
        line of the bank against the written pattern, repair damage."""
        self.system.drain_flips()  # route pending flips into the bytes
        data = self.system.data
        flipped: Set[int] = set()
        for row, virtual_lines in self._lines_by_row.items():
            if row[:3] != bank_key:
                continue
            for virtual_line in virtual_lines:
                physical = self.handle.physical_line(virtual_line)
                if data.read(physical) != PROBE_PATTERN:
                    flipped.add(row[3])
                    data.write(physical, PROBE_PATTERN)  # repair
        return flipped

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _analyze(self, report: ProbeReport, rows: List[int]) -> None:
        """Turn raw pair observations into remap/boundary suspicions.

        With the sub-critical dose, the only expected flip per pair is
        the *middle* row.  Classification runs over the set of missing
        middles (see :meth:`probe_bank`): 2-runs are boundaries, longer
        runs centre on remapped rows, and any logically-far flip is
        direct evidence that its row's data sits in a foreign
        neighbourhood.
        """
        radius = self.system.profile.blast_radius
        missing: List[int] = []
        for (low, high), flipped in report.observations.items():
            middle = low + 1
            if middle not in flipped:
                missing.append(middle)
            expected = set()
            for aggressor in (low, high):
                expected.update(range(aggressor - radius, aggressor + radius + 1))
            for row in flipped - expected:
                report.suspected_remapped.add(row)
        missing.sort()
        run: List[int] = []
        for row in missing + [None]:  # type: ignore[list-item]
            if run and (row is None or row != run[-1] + 1):
                if len(run) == 1:
                    report.suspected_remapped.add(run[0])
                elif len(run) == 2:
                    report.suspected_boundaries.add(run[0])
                else:
                    for inner in run[1:-1]:
                        report.suspected_remapped.add(inner)
                run = []
            if row is not None:
                run.append(row)
