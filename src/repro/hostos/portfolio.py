"""Defense portfolios: what a cloud provider actually deploys.

The paper's taxonomy (§2.2) is per-mechanism, but §4's deployment story
is a *combination*: subarray isolation for the cross-tenant threat, plus
a frequency- or refresh-centric layer for whatever remains (intra-domain
disturbance of critical assets, §2.2's caveat).  ``DefensePortfolio``
manages such a stack as one object — ordered attachment, aggregate cost,
a combined coverage posture derived from the members' taxonomy traits —
and is what the defense-in-depth integration tests drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.taxonomy import AttackCondition, MitigationClass
from repro.defenses.base import Defense, DefenseCost

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


@dataclass(frozen=True)
class Posture:
    """The combined coverage a portfolio claims, derived from traits."""

    eliminated_conditions: Tuple[AttackCondition, ...]
    stops_cross_domain: bool
    stops_intra_domain: bool
    covers_dma: bool

    @property
    def complete(self) -> bool:
        """Covers cross- and intra-domain threats including DMA."""
        return self.stops_cross_domain and self.stops_intra_domain and self.covers_dma


class DefensePortfolio:
    """An ordered stack of defenses managed as one unit."""

    def __init__(self, defenses: Sequence[Defense]) -> None:
        if not defenses:
            raise ValueError("a portfolio needs at least one defense")
        names = [defense.name for defense in defenses]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate defenses in portfolio: {names}")
        self.defenses: List[Defense] = list(defenses)
        self.attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, system: "System") -> None:
        """Attach every member in order.  Fails atomically in the sense
        that a missing primitive surfaces before any simulation runs;
        partially attached members stay attached (defenses have no
        detach — build a fresh system to retry)."""
        if self.attached:
            raise RuntimeError("portfolio is already attached")
        for defense in self.defenses:
            defense.attach(system)
        self.attached = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def posture(self) -> Posture:
        """Combined claims: a threat is covered if *any* member covers
        it; a condition is eliminated if any member's class eliminates
        it.  (Whether the claims hold is what the experiments test.)"""
        conditions = tuple(sorted(
            {defense.traits.eliminated_condition for defense in self.defenses},
            key=lambda condition: condition.value,
        ))
        return Posture(
            eliminated_conditions=conditions,
            stops_cross_domain=any(
                defense.traits.stops_cross_domain for defense in self.defenses
            ),
            stops_intra_domain=any(
                defense.traits.stops_intra_domain for defense in self.defenses
            ),
            covers_dma=all(
                defense.traits.covers_dma
                for defense in self.defenses
                if defense.traits.stops_cross_domain
            ),
        )

    def total_cost(self) -> DefenseCost:
        """Aggregate static budget across members."""
        return DefenseCost(
            sram_bits=sum(d.cost().sram_bits for d in self.defenses),
            reserved_capacity_fraction=sum(
                d.cost().reserved_capacity_fraction for d in self.defenses
            ),
            reserved_cache_ways=sum(
                d.cost().reserved_cache_ways for d in self.defenses
            ),
        )

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {defense.name: dict(defense.counters) for defense in self.defenses}

    def classes(self) -> Tuple[MitigationClass, ...]:
        return tuple(defense.traits.mitigation_class for defense in self.defenses)
