"""BreakHammer: throttle the threads that *cause* mitigations.

The second next-generation mitigation from the defense-zoo roadmap
item (arxiv 2404.13477).  BreakHammer is not a tracker itself — it
layers on top of whatever Rowhammer mitigation the platform already
runs and asks a different question: *which trust domain keeps setting
that mitigation off?*  Each triggered mitigation (a TRR target, a PRAC
recovery, a neighbor refresh) is blamed on the domain dominating the
recent ACT stream; domains whose blame score crosses a suspicion
threshold get their ACTs throttled through the same act-gate primitive
BlockHammer uses, starving the attack of activation bandwidth while
benign domains — which trigger mitigations rarely — never pay.

The base defense is pluggable: any :class:`~repro.defenses.base.Defense`
that declares ``mitigation_counters`` (the generic "I just spent work
mitigating" signal) can be wrapped.  The default base is
:class:`~repro.defenses.prac.PracDefense` — the canonical pairing in
the PRACtical line.  Any other base works too (say PARA or Graphene):
its per-ACT hooks run inside the hammer chain like everyone else's.

The throttle gate runs inline on every ACT in both the scalar and the
chain submission paths, so the composite is bulk == scalar by
construction, like BlockHammer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.defenses.base import Defense, DefenseCost
from repro.dram.geometry import DdrAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System

#: per-domain score-table entry: domain id + saturating blame score
_SCORE_ENTRY_BITS = 32
#: fixed score-table capacity (hardware registers, not per-row SRAM —
#: BreakHammer's pitch is precisely that its state does *not* grow
#: with density)
_SCORE_TABLE_ENTRIES = 64

#: key used for ACTs with no attached trust domain (kernel, DMA)
_NO_DOMAIN = -1


class BreakHammerDefense(Defense):
    """Suspect-domain throttling layered on a base mitigation.

    ``suspect_threshold`` is the per-epoch blame score (attributed
    mitigations) past which a domain is throttled; scores halve at
    every epoch roll (half a refresh window, as in BlockHammer's
    dual-epoch scheme) so suspicion decays once the pressure stops.
    Benign domains trigger at most a handful of mitigations per epoch,
    so the default threshold keeps them untouched while a hammering
    domain — which forces mitigation work every REF — crosses it
    within its first window.
    """

    name = "breakhammer"
    table1_row = ("none — self-contained in-MC", "BreakHammer suspect throttling")
    traits = DefenseTraits(
        mitigation_class=MitigationClass.FREQUENCY,
        location="mc",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=True,  # un-attributed ACT streams are scored too
        scales_with_density=True,  # fixed score table; base does the tracking
    )
    requires: Tuple[Primitive, ...] = ()  # self-contained MC hardware

    def __init__(
        self,
        base: Optional[Defense] = None,
        suspect_threshold: int = 64,
        trickle_fraction: int = 8,
    ) -> None:
        """``base``: the underlying mitigation whose triggers are
        scored; ``None`` builds the default ``PracDefense``.  The base
        must expose at least one name in ``mitigation_counters`` —
        without that signal there is nothing to attribute."""
        super().__init__()
        if suspect_threshold < 1:
            raise ValueError("suspect_threshold must be >= 1")
        if trickle_fraction < 1:
            raise ValueError("trickle_fraction must be >= 1")
        if base is None:
            from repro.defenses.prac import PracDefense

            base = PracDefense()
        if not base.mitigation_counters:
            raise ValueError(
                f"base defense {base.name!r} declares no "
                f"mitigation_counters; BreakHammer has nothing to score"
            )
        self.base = base
        self.suspect_threshold = suspect_threshold
        self.trickle_fraction = trickle_fraction
        self._scores: Dict[int, int] = {}
        self._acts: Dict[int, int] = {}
        self._suspects: set = set()
        self._epoch_len = 0
        self._epoch_end = 0
        self._trickle_budget = 1
        self._last_mitigations = 0

    # ------------------------------------------------------------------
    # Defense lifecycle
    # ------------------------------------------------------------------

    def _wire(self, system: "System") -> None:
        if self.base.attached:
            raise RuntimeError(
                f"base defense {self.base.name!r} is already attached"
            )
        # The base attaches through the normal lifecycle: it validates
        # its own primitives, registers its own metrics group, and
        # joins system.defenses — BreakHammer only adds the gate.
        self.base.attach(system)
        self._epoch_len = max(1, system.timings.tREFW // 2)
        self._epoch_end = self._epoch_len
        self._trickle_budget = max(
            1, system.profile.mac // self.trickle_fraction
        )
        self.counters["peak_domains_tracked"] = 0
        system.controller.add_act_gate(self._gate)

    def cost(self) -> DefenseCost:
        """A fixed score table of domain registers plus whatever the
        base tracker costs.  The wrapper's own state is density-blind —
        its scaling story is the base's scaling story."""
        base = self.base.cost()
        return DefenseCost(
            sram_bits=base.sram_bits
            + _SCORE_TABLE_ENTRIES * _SCORE_ENTRY_BITS,
            reserved_capacity_fraction=base.reserved_capacity_fraction,
            reserved_cache_ways=base.reserved_cache_ways,
        )

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row["base"] = self.base.name
        return row

    # ------------------------------------------------------------------
    # The throttle gate (inline on scalar and bulk ACT paths)
    # ------------------------------------------------------------------

    def _gate(self, address: DdrAddress, now: int, domain: Optional[int]) -> int:
        if now >= self._epoch_end:
            self._roll_epoch(now)
        key = _NO_DOMAIN if domain is None else domain
        self._acts[key] = self._acts.get(key, 0) + 1
        if len(self._acts) > self.counters["peak_domains_tracked"]:
            self.counters["peak_domains_tracked"] = len(self._acts)
        self._attribute_new_mitigations()
        score = self._scores.get(key, 0)
        if score < self.suspect_threshold:
            return 0
        if key not in self._suspects:
            self._suspects.add(key)
            self.bump("suspected_domains")
        # BlockHammer-style trickle: pace the suspect so it gets only a
        # sliver of activation bandwidth for the rest of the epoch.
        remaining_time = max(1, self._epoch_end - now)
        delay = max(1, remaining_time // self._trickle_budget)
        self.bump("throttled_acts")
        self.bump("throttle_delay_ns", delay)
        return delay

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mitigation_total(self) -> int:
        counters = self.base.counters
        return sum(
            counters.get(name, 0) for name in self.base.mitigation_counters
        )

    def _attribute_new_mitigations(self) -> None:
        """Blame mitigations triggered since the last ACT on the domain
        dominating this epoch's ACT stream (deterministic tie-break on
        the domain id) — BreakHammer's attribution heuristic."""
        total = self._mitigation_total()
        delta = total - self._last_mitigations
        if delta <= 0:
            return
        self._last_mitigations = total
        top = min(
            self._acts, key=lambda key: (-self._acts[key], key)
        )
        self._scores[top] = self._scores.get(top, 0) + delta
        self.bump("mitigations_attributed", delta)

    def _roll_epoch(self, now: int) -> None:
        self._acts.clear()
        self._suspects.clear()
        # suspicion decays: halve every epoch, drop cleared domains
        self._scores = {
            key: score // 2
            for key, score in self._scores.items()
            if score // 2 > 0
        }
        while self._epoch_end <= now:
            self._epoch_end += self._epoch_len
