"""Refresh-centric defenses: refresh victims before they flip (§4.3).

The paper's proposal and its baselines, spanning all three locations:

``TargetedRefreshDefense`` (software, **the paper's**) — precise ACT
interrupts identify the aggressor; the host OS issues the proposed
``refresh`` instruction to every potential victim row.  With DRAM
cooperation it upgrades to a single ``REF_NEIGHBORS`` command.

``AnvilDefense`` (software baseline [4]) — runs on *today's* hardware:
samples core-side misses (PEBS-style), and "refreshes" victims through
the only path available — cache flush + load — which is slow and, per
§4.3, unreliable (a load absorbed by an open row buffer performs no
ACT, hence no refresh).  Its §1 flaw: DMA traffic is invisible to core
counters, so DMA hammering sails through (E7).

``ParaDefense`` (in-MC baseline [32]) — probabilistic adjacent-row
refresh on every ACT.  Stateless, but its refresh radius is fixed in
hardware: modules with larger blast radii than it was built for leak
(E5), and the extra ACTs cost bandwidth in proportion to ``p``.

``GrapheneDefense`` (in-MC baseline [44]) — Misra-Gries heavy-hitter
counters; exact protection guarantee, but table size scales as
``window_ACTs / threshold ∝ 1/MAC`` — the §3 SRAM-growth liability (E5).

``TwiceDefense`` (in-MC baseline [37]) — per-row time-window counters
pruned periodically; same action as Graphene with a bigger table.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.defenses.base import Defense, DefenseCost
from repro.dram.geometry import DdrAddress
from repro.mc.counters import ActInterrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.mc.controller import ActAction
    from repro.sim.system import System

RowId = Tuple[int, int, int, int]

_COUNTER_BITS = 16
_TAG_BITS = 20


def _safe_threshold(system: "System", margin: float) -> int:
    """Per-aggressor ACT budget such that victims stay under MAC even
    with aggressors on both sides at every distance."""
    profile = system.profile
    amplification = 2 * sum(
        profile.weight(d) for d in range(1, profile.blast_radius + 1)
    )
    return max(1, int(profile.mac * margin / amplification))


def _neighbor_addresses(
    system: "System", address: DdrAddress, radius: int
) -> List[DdrAddress]:
    """Logically adjacent rows — what MC/software-level defenses can
    name.  (Internal remaps may divert these; that blind spot is real
    and measured in E11.)"""
    return [
        DdrAddress(address.channel, address.rank, address.bank, row, 0)
        for row in system.geometry.neighbors_within(address.row, radius)
    ]


class TargetedRefreshDefense(Defense):
    """The paper's refresh-centric proposal (§4.2 + §4.3 combined).

    On each precise ACT interrupt, refresh every potential victim of the
    reported aggressor row with the ``refresh`` instruction — or, when
    the platform has DRAM cooperation, one ``REF_NEIGHBORS`` command
    (which also wins on internal adjacency, since DRAM resolves it).
    """

    name = "targeted-refresh"
    table1_row = ("CPU refresh instruction", "software victim refresh")
    mitigation_counters = ("victim_refreshes", "ref_neighbors_issued")
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=True,
        scales_with_density=True,  # radius is a software parameter
    )
    requires = (Primitive.PRECISE_ACT_INTERRUPT, Primitive.REFRESH_INSTRUCTION)

    def __init__(
        self,
        interrupt_fraction: float = 0.125,
        jitter_fraction: float = 0.25,
        radius: Optional[int] = None,
        prefer_ref_neighbors: bool = True,
    ) -> None:
        super().__init__()
        if not 0.0 < interrupt_fraction < 1.0:
            raise ValueError("interrupt_fraction must be in (0, 1)")
        self.interrupt_fraction = interrupt_fraction
        self.jitter_fraction = jitter_fraction
        self.radius = radius
        self.prefer_ref_neighbors = prefer_ref_neighbors
        self._in_handler = False
        self._use_ref_neighbors = False

    def _wire(self, system: "System") -> None:
        threshold = max(2, int(system.profile.mac * self.interrupt_fraction))
        jitter = int(threshold * self.jitter_fraction)
        system.controller.configure_counters(
            threshold, precise=True, reset_jitter=jitter
        )
        system.controller.subscribe_interrupts(self._on_interrupt)
        if self.radius is None:
            self.radius = system.profile.blast_radius
        self._use_ref_neighbors = self.prefer_ref_neighbors and system.primitives.has(
            Primitive.REF_NEIGHBORS_COMMAND
        )

    def _on_interrupt(self, interrupt: ActInterrupt) -> None:
        assert self.system is not None
        if self._in_handler:
            self.bump("masked_interrupts")
            return
        if interrupt.physical_line is None:
            self.bump("useless_imprecise_interrupts")
            return
        self.bump("interrupts")
        self._in_handler = True
        try:
            self._refresh_victims(interrupt.physical_line, interrupt.time_ns)
        finally:
            self._in_handler = False

    def _refresh_victims(self, physical_line: int, now: int) -> None:
        system = self.system
        assert system is not None and self.radius is not None
        if self._use_ref_neighbors:
            system.isa.ref_neighbors(
                system.host_context, physical_line, self.radius, now
            )
            self.bump("ref_neighbors_issued")
            return
        aggressor = system.mapper.line_to_ddr(physical_line)
        for victim in _neighbor_addresses(system, aggressor, self.radius):
            line = system.some_line_in_row(victim.row_key())
            if line is None:
                self.bump("unmapped_victims_skipped")
                continue
            system.isa.refresh_physical(system.host_context, line, now)
            self.bump("victim_refreshes")


class AnvilDefense(Defense):
    """ANVIL-style software defense on *today's* hardware [4].

    Watches core-originated misses only (what PEBS sees), counts per
    row, and on suspicion "refreshes" victims the only way current
    machines allow: flush + load of a line in each victim row.  Both of
    the paper's criticisms emerge mechanically:

    * §1 — DMA-induced ACTs never reach its counters (E7);
    * §4.3 — its refresh loads only ACT (hence refresh) when the target
      row is *not* already in the row buffer, so some "refreshes" are
      silently ineffective.
    """

    name = "anvil"
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=False,  # the §1 blind spot
        scales_with_density=True,
    )
    requires: Tuple[Primitive, ...] = ()  # deployable today

    def __init__(self, threshold_margin: float = 0.45, radius: Optional[int] = None):
        super().__init__()
        self.threshold_margin = threshold_margin
        self.radius = radius
        self._counts: Dict[RowId, int] = {}
        self._window_end = 0
        self._threshold = 0
        self._in_handler = False

    def _wire(self, system: "System") -> None:
        self._threshold = _safe_threshold(system, self.threshold_margin)
        self._window_end = system.timings.tREFW
        if self.radius is None:
            self.radius = system.profile.blast_radius
        system.controller.add_act_observer(self._on_act)

    def _on_act(
        self, address: DdrAddress, now: int, domain: Optional[int], is_dma: bool
    ) -> Optional[ActAction]:
        if is_dma:
            return None  # invisible to core performance counters
        if self._in_handler:
            return None  # our own refresh loads
        if now >= self._window_end:
            self._counts.clear()
            refw = self.system.timings.tREFW
            while self._window_end <= now:
                self._window_end += refw
        row = address.row_key()
        count = self._counts.get(row, 0) + 1
        if count < self._threshold:
            self._counts[row] = count
            return None
        self._counts[row] = 0
        return lambda: self._refresh_via_loads(address, now)

    def _refresh_via_loads(self, aggressor: DdrAddress, now: int) -> None:
        """The convoluted path of §4.3: flush + load one line per victim
        row and hope the load misses the row buffer into an ACT."""
        from repro.mc.controller import MemoryRequest

        system = self.system
        assert system is not None and self.radius is not None
        self.bump("suspicions")
        self._in_handler = True
        try:
            when = now
            for victim in _neighbor_addresses(system, aggressor, self.radius):
                line = system.some_line_in_row(victim.row_key())
                if line is None:
                    self.bump("unmapped_victims_skipped")
                    continue
                system.cache.flush(line)
                completed = system.controller.submit(MemoryRequest(
                    time_ns=when, physical_line=line, is_write=False
                ))
                when = completed.ready_at_ns
                if completed.caused_act:
                    self.bump("effective_refreshes")
                else:
                    # the row buffer absorbed it
                    self.bump("ineffective_refreshes")
        finally:
            self._in_handler = False


class ParaDefense(Defense):
    """PARA [32]: on every ACT, with probability ``p`` also activate one
    row within ``refresh_radius`` of the target (refreshing it).
    Stateless in-MC hardware; the radius is frozen at design time."""

    name = "para"
    mitigation_counters = ("neighbor_refreshes",)
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="mc",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=True,
        scales_with_density=False,  # frozen radius, probability retuning
    )
    requires: Tuple[Primitive, ...] = ()

    def __init__(self, probability: float = 0.01, refresh_radius: int = 1) -> None:
        super().__init__()
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if refresh_radius < 1:
            raise ValueError("refresh_radius must be >= 1")
        self.probability = probability
        self.refresh_radius = refresh_radius
        self._rng = random.Random(0xBA5E)

    def _wire(self, system: "System") -> None:
        self._rng = random.Random(system.config.seed ^ 0xBA5E)
        system.controller.add_act_observer(self._on_act)

    def _on_act(
        self, address: DdrAddress, now: int, domain: Optional[int], is_dma: bool
    ) -> Optional[ActAction]:
        if self._rng.random() >= self.probability:
            return None
        neighbors = _neighbor_addresses(self.system, address, self.refresh_radius)
        if not neighbors:
            return None
        victim = self._rng.choice(neighbors)
        return lambda: self._refresh(victim, now)

    def _refresh(self, victim: DdrAddress, now: int) -> None:
        # a refresh-path ACT on the device: no controller ACT, so it
        # never comes back to this observer
        self.system.device.activate(
            victim, now, domain=None, precharge_after=True, refresh_only=True,
        )
        self.bump("neighbor_refreshes")


class GrapheneDefense(Defense):
    """Graphene [44]: Misra-Gries heavy-hitter tracking per bank.

    Any row truly activated ≥ (window_ACTs / table_size) + threshold is
    guaranteed to be in the table with estimated count ≥ threshold, at
    which point its neighbours are refreshed and its estimate resets.
    The table is sized for that guarantee — and therefore grows as the
    safe threshold shrinks with MAC (E5's cost curve).
    """

    name = "graphene"
    mitigation_counters = ("neighbor_refreshes",)
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="mc",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=True,
        scales_with_density=False,  # table ∝ 1/MAC
    )
    requires: Tuple[Primitive, ...] = ()

    def __init__(
        self,
        threshold_margin: float = 0.45,
        table_entries: Optional[int] = None,
        radius: Optional[int] = None,
    ) -> None:
        """``table_entries`` caps the per-bank table (to model a module
        denser than the hardware was built for — E5); default sizes for
        the guarantee."""
        super().__init__()
        self.threshold_margin = threshold_margin
        self.table_entries = table_entries
        self.radius = radius
        self._tables: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        self._threshold = 0
        self._entries = 0
        self._window_end = 0

    def required_entries(self, system: "System") -> int:
        """Misra-Gries sizing for the protection guarantee: catch any row
        exceeding ``threshold`` among ``window_acts`` ACTs → need
        ``window_acts / threshold`` counters per bank."""
        threshold = _safe_threshold(system, self.threshold_margin)
        window_acts = system.timings.tREFW // system.timings.tRC
        return max(1, window_acts // max(1, threshold))

    def _wire(self, system: "System") -> None:
        self._threshold = _safe_threshold(system, self.threshold_margin)
        self._entries = (
            self.table_entries
            if self.table_entries is not None
            else self.required_entries(system)
        )
        if self.radius is None:
            self.radius = system.profile.blast_radius
        self._window_end = system.timings.tREFW
        system.controller.add_act_observer(self._on_act)

    def cost(self) -> DefenseCost:
        banks = self.system.geometry.banks_total if self.system else 1
        return DefenseCost(
            sram_bits=self._entries * (_COUNTER_BITS + _TAG_BITS) * banks
        )

    def _on_act(
        self, address: DdrAddress, now: int, domain: Optional[int], is_dma: bool
    ) -> Optional[ActAction]:
        if now >= self._window_end:
            self._tables.clear()
            refw = self.system.timings.tREFW
            while self._window_end <= now:
                self._window_end += refw
        table = self._tables.setdefault(address.bank_key(), {})
        row = address.row
        if row in table:
            table[row] += 1
        elif len(table) < self._entries:
            table[row] = 1
        else:
            # Misra-Gries decrement-all step
            for key in list(table):
                table[key] -= 1
                if table[key] <= 0:
                    del table[key]
            self.bump("mg_decrements")
            return None
        if table[row] < self._threshold:
            return None
        table[row] = 0
        return lambda: self._refresh_neighbors(address, now)

    def _refresh_neighbors(self, aggressor: DdrAddress, now: int) -> None:
        # refresh-path ACTs on the device never come back to the observer
        for victim in _neighbor_addresses(self.system, aggressor, self.radius):
            self.system.device.activate(
                victim, now, domain=None, precharge_after=True,
                refresh_only=True,
            )
            self.bump("neighbor_refreshes")


class TwiceDefense(GrapheneDefense):
    """TWiCe [37]: per-row time-window counters with periodic pruning.

    Behaviourally close to Graphene but tracks *every* recently active
    row until pruning, so the table (CAM) is larger; ``cost()`` reports
    the peak occupancy actually reached — the quantity TWiCe's authors
    and §3 worry about as density rises.
    """

    name = "twice"

    def __init__(self, threshold_margin: float = 0.45, radius: Optional[int] = None):
        super().__init__(threshold_margin=threshold_margin, radius=radius)
        self._peak_entries = 0
        self._prune_at = 0
        self._prune_interval = 0

    def _wire(self, system: "System") -> None:
        self._threshold = _safe_threshold(system, self.threshold_margin)
        self._entries = 1 << 30  # unbounded table; cost() reports the peak
        if self.radius is None:
            self.radius = system.profile.blast_radius
        self._window_end = system.timings.tREFW
        # prune at every tREFI, as TWiCe does on refresh commands
        self._prune_interval = system.timings.tREFI
        self._prune_at = self._prune_interval
        system.controller.add_act_observer(self._on_act)

    def cost(self) -> DefenseCost:
        banks = self.system.geometry.banks_total if self.system else 1
        return DefenseCost(
            sram_bits=max(1, self._peak_entries) * (_COUNTER_BITS + _TAG_BITS) * banks
        )

    def _on_act(
        self, address: DdrAddress, now: int, domain: Optional[int], is_dma: bool
    ) -> Optional[ActAction]:
        if now >= self._prune_at:
            self._prune(now)
        action = super()._on_act(address, now, domain, is_dma)
        occupancy = max(
            (len(table) for table in self._tables.values()), default=0
        )
        self._peak_entries = max(self._peak_entries, occupancy)
        return action

    def _prune(self, now: int) -> None:
        """Drop rows whose activation rate cannot reach the threshold
        within the window (TWiCe's pruning rule, simplified)."""
        refs_per_window = max(1, self.system.timings.refs_per_window)
        life_minimum = max(1, self._threshold // refs_per_window)
        for table in self._tables.values():
            for row in [r for r, c in table.items() if c < life_minimum]:
                del table[row]
        while self._prune_at <= now:
            self._prune_at += self._prune_interval
        self.bump("prunes")
