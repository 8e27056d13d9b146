"""Attack planning: turning DRAM layout knowledge into aggressor sets.

§2.1: attackers with knowledge of DRAM address mappings target specific
data, using established methods to learn row adjacency.  The planner
plays that adversary with full knowledge of the *logical* layout (the
mapping is BIOS-determined and recoverable [11]); DRAM-internal remaps
remain hidden and must be inferred (:mod:`repro.attacks.adjacency`).

Patterns modelled (all appear in the paper's threat discussion):

* ``single-sided``  — one aggressor adjacent to victim data;
* ``double-sided``  — the classic v−1 / v+1 sandwich;
* ``many-sided``    — TRRespass-style: n aggressors in one bank, to
  overwhelm an in-DRAM tracker of n' < n entries (§3);
* ``one-location``  — repeatedly re-opening a single row.

Execution (core flush+load vs. DMA) is chosen by the attacker, not the
plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

RowKey = Tuple[int, int, int, int]

PATTERN_NAMES = (
    "single-sided", "double-sided", "many-sided", "one-location",
    "half-double",
)


@dataclass(frozen=True)
class AttackPlan:
    """A concrete, executable attack: which of the attacker's *virtual*
    lines to hammer, and which victim rows they should disturb.

    ``weights`` (optional) gives per-line hammer counts within one
    rotation — Half-Double-style patterns hammer far aggressors heavily
    and near "assist" rows lightly.  Empty means one access per line.
    """

    pattern: str
    #: attacker-virtual line addresses to hammer, in rotation order
    aggressor_lines: Tuple[int, ...]
    #: the logical rows the plan expects to corrupt
    expected_victim_rows: Tuple[RowKey, ...]
    #: per-line accesses per rotation (parallel to aggressor_lines)
    weights: Tuple[int, ...] = ()

    @property
    def sides(self) -> int:
        return len(self.aggressor_lines)

    @property
    def viable(self) -> bool:
        """False when the attacker found no aggressor position that
        could reach victim data — isolation worked."""
        return bool(self.aggressor_lines) and bool(self.expected_victim_rows)


class AttackPlanner:
    """Builds plans from the attacker's (legal) layout knowledge.

    The attacker knows: its own virtual→physical mappings (timing side
    channels / pagemap), the physical→DDR map (BIOS-determined [11]),
    and — against a specific co-tenant — which rows hold victim data
    (derived here from the oracle for determinism; in reality via
    templating and massaging, which §2.1 cites as established)."""

    def __init__(self, system: "System", attacker: "DomainHandle") -> None:
        self.system = system
        self.attacker = attacker
        self._line_by_row: Dict[RowKey, int] = {}
        self._index_attacker_rows()

    def _index_attacker_rows(self) -> None:
        """Map each logical row holding attacker data to one attacker
        *virtual* line inside it (the hammer handle): the first, in
        virtual-line order.

        This is the attacker's offline knowledge of the layout, not a
        run of memory accesses: each page goes through the attacker's
        page table and the map's closed-form ``frame_rows``, so the TLB
        and the ``line_to_ddr`` memo are left as they were."""
        attacker = self.attacker
        table = self.system.mmu.table(attacker.asid)
        frame_rows = self.system.mapper.frame_rows
        lines_per_page = attacker.lines_per_page
        line_by_row = self._line_by_row
        for page in range(attacker.pages):
            first = page * lines_per_page
            rows = frame_rows(table.translate(page).frame)
            for row, offset in rows.items():
                line_by_row.setdefault(row, first + offset)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def attacker_rows(self) -> Set[RowKey]:
        return set(self._line_by_row)

    def reachable_victim_rows(self, victim: "DomainHandle") -> Set[RowKey]:
        """Victim rows lying within the blast radius of any attacker row
        (by logical adjacency)."""
        radius = self.system.profile.blast_radius
        victim_rows = victim.rows()
        reachable = set()
        for row in self._line_by_row:
            for neighbor in self.system.logical_neighbor_rows(row, radius):
                if neighbor in victim_rows:
                    reachable.add(neighbor)
        return reachable

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(
        self,
        victim: "DomainHandle",
        pattern: str = "double-sided",
        sides: int = 8,
        spacing: int = 2,
    ) -> AttackPlan:
        """Build the strongest plan of the given pattern against
        ``victim``.  A non-viable plan (no reachable victim rows) is
        returned rather than raised — "the attack has nowhere to land"
        is a *result* for isolation experiments.

        ``spacing`` is the minimum row gap between many-sided comb
        aggressors: 2 concentrates disturbance (strongest raw attack),
        larger values park the sandwiched victims *outside* a fixed
        refresh radius — how real attackers probe blackbox TRR variants.
        """
        if pattern == "single-sided":
            return self._plan_sided(victim, max_aggressors=1, name=pattern)
        if pattern == "double-sided":
            return self._plan_double_sided(victim)
        if pattern == "many-sided":
            return self._plan_sided(
                victim, max_aggressors=sides, name="many-sided",
                spacing=spacing,
            )
        if pattern == "one-location":
            plan = self._plan_sided(victim, max_aggressors=1, name="one-location")
            return plan
        if pattern == "half-double":
            return self._plan_half_double(victim)
        raise ValueError(
            f"unknown pattern {pattern!r}; known: {', '.join(PATTERN_NAMES)}"
        )

    def plan_intra_domain(self, pattern: str = "double-sided", sides: int = 8) -> AttackPlan:
        """Hammer the attacker's *own* rows (the §2.2 intra-domain
        residual that isolation-centric defenses do not stop)."""
        return self.plan(self.attacker, pattern=pattern, sides=sides)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_half_double(self, victim: "DomainHandle") -> AttackPlan:
        """Half-Double: hammer rows at distance 2 from the victim
        heavily, with light "assist" hammering of the distance-1 rows.

        The heavy hitters sit *outside* a radius-1 defense's refresh
        neighbourhood of the victim, so a TRR built for blast radius 1
        refreshes the wrong rows; the victim accumulates distance-2
        pressure (plus the assists) and flips.  Requires a module whose
        blast radius is at least 2.
        """
        if self.system.profile.blast_radius < 2:
            return AttackPlan("half-double", (), ())
        victim_rows = victim.rows()
        for (channel, rank, bank, row), line in sorted(self._line_by_row.items()):
            # look for: attacker rows at v-2, v-1, v+1, v+2 around a
            # victim row v (row here = v-2)
            v = row + 2
            needed = {row, v - 1, v + 1, v + 2}
            keys = {
                offset: (channel, rank, bank, offset) for offset in needed
            }
            if (channel, rank, bank, v) not in victim_rows:
                continue
            if not all(key in self._line_by_row for key in keys.values()):
                continue
            if not self.system.geometry.same_subarray(row, v + 2):
                continue
            far = (self._line_by_row[keys[row]],
                   self._line_by_row[keys[v + 2]])
            near = (self._line_by_row[keys[v - 1]],
                    self._line_by_row[keys[v + 1]])
            return AttackPlan(
                pattern="half-double",
                aggressor_lines=far + near,
                expected_victim_rows=((channel, rank, bank, v),),
                weights=(8, 8, 1, 1),  # heavy far, light assists
            )
        return AttackPlan("half-double", (), ())

    def _plan_double_sided(self, victim: "DomainHandle") -> AttackPlan:
        """Find a victim row sandwiched by two attacker rows."""
        victim_rows = victim.rows()
        for (channel, rank, bank, row), line in sorted(self._line_by_row.items()):
            above = (channel, rank, bank, row + 2)
            between = (channel, rank, bank, row + 1)
            if between in victim_rows and above in self._line_by_row:
                if self.system.geometry.same_subarray(row, row + 2):
                    return AttackPlan(
                        pattern="double-sided",
                        aggressor_lines=(line, self._line_by_row[above]),
                        expected_victim_rows=(between,),
                    )
        # no sandwich available: degrade to the best single-sided plan
        fallback = self._plan_sided(victim, max_aggressors=2, name="double-sided")
        return fallback

    def _plan_sided(
        self, victim: "DomainHandle", max_aggressors: int, name: str,
        spacing: int = 2,
    ) -> AttackPlan:
        """Choose up to ``max_aggressors`` attacker rows, all in one
        bank (bank conflicts are what force the alternating ACTs,
        §2.1), each adjacent to at least one victim row."""
        radius = self.system.profile.blast_radius
        victim_rows = victim.rows()
        by_bank: Dict[Tuple[int, int, int], List[Tuple[int, RowKey, List[RowKey]]]] = {}
        for row_key, line in sorted(self._line_by_row.items()):
            hits = [
                neighbor
                for neighbor in self.system.logical_neighbor_rows(row_key, radius)
                if neighbor in victim_rows
            ]
            if hits:
                by_bank.setdefault(row_key[:3], []).append((line, row_key, hits))
        if not by_bank:
            return AttackPlan(name, (), ())
        bank, candidates = max(by_bank.items(), key=lambda item: len(item[1]))
        # Comb selection: aggressors spaced >= 2 rows apart.  An ACT
        # refreshes the activated row itself (§2.1), so hammering two
        # adjacent rows protects the data *in* them; real many-sided
        # patterns sandwich untouched victim rows between aggressors.
        chosen: List[Tuple[int, RowKey, List[RowKey]]] = []
        last_row: Optional[int] = None
        spacing = max(2, spacing)
        for candidate in sorted(candidates, key=lambda item: item[1][3]):
            row_index = candidate[1][3]
            if last_row is not None and row_index - last_row < spacing:
                continue
            chosen.append(candidate)
            last_row = row_index
            if len(chosen) >= max_aggressors:
                break
        if not chosen:
            chosen = candidates[:max_aggressors]
        lines = [line for line, _row, _hits in chosen]
        hammered_rows = {row for _line, row, _hits in chosen}
        victims = tuple(
            sorted(
                {hit for _line, _row, hits in chosen for hit in hits}
                - hammered_rows
            )
        )
        if len(lines) == 1 and name != "one-location":
            # §2.1: a lone aggressor leaves its row open, so repeated
            # accesses are row-buffer hits and never re-activate.  Real
            # single-sided attacks pair the aggressor with a far-away
            # row in the same bank to force bank conflicts.
            dummy = self._conflict_row_line(bank, victims)
            if dummy is not None:
                lines.append(dummy)
        return AttackPlan(name, tuple(lines), victims)

    def _conflict_row_line(
        self, bank: Tuple[int, int, int], victim_rows: Tuple[RowKey, ...]
    ) -> Optional[int]:
        """An attacker line in ``bank`` whose row is outside the blast
        radius of every targeted victim row (a pure row-buffer evictor)."""
        radius = self.system.profile.blast_radius
        victim_indices = {row[3] for row in victim_rows if row[:3] == bank}
        best = None
        best_distance = -1
        for (channel, rank, bank_id, row), line in self._line_by_row.items():
            if (channel, rank, bank_id) != bank:
                continue
            distance = min(
                (abs(row - v) for v in victim_indices), default=1 << 30
            )
            if distance > radius and distance > best_distance:
                best = line
                best_distance = distance
        return best
