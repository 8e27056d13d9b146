"""Common lifecycle for every Rowhammer defense in the harness.

One abstraction covers all three locations the paper distinguishes:
in-DRAM (vendor TRR), in-MC (PARA/BlockHammer/Graphene/TWiCe), and host
software (the paper's proposals, ANVIL, allocator policies).  Uniformity
is what lets a single experiment sweep "defense × attack × DRAM
generation" and print one table.

A defense declares:

* ``traits``       — its mitigation class and coverage claims (taxonomy);
* ``requires``     — the MC primitives it needs (§4); attach() *fails*
  without them, which is how experiments demonstrate that the paper's
  software defenses are impossible on today's hardware;
* ``cost()``       — its hardware budget (SRAM/CAM bits), the quantity
  §3 argues explodes as DRAM density grows.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import System


@dataclass(frozen=True)
class DefenseCost:
    """Static hardware/software budget of one defense instance.

    ``sram_bits`` counts dedicated tracker state (SRAM or CAM —
    "relatively-expensive memory", §1).  ``reserved_capacity_fraction``
    is DRAM capacity sacrificed (guard rows, reserved subarrays).
    ``reserved_cache_ways`` is LLC associativity claimed by locking.
    """

    sram_bits: int = 0
    reserved_capacity_fraction: float = 0.0
    reserved_cache_ways: int = 0


class Defense(abc.ABC):
    """Base class; subclasses implement ``_wire`` and optional hooks."""

    #: short name used in experiment tables
    name: str = "defense"
    #: taxonomy classification (set by every subclass)
    traits: DefenseTraits
    #: primitives that must be present to attach
    requires: Tuple[Primitive, ...] = ()
    #: Optional Table-1 pairing ``(mc-primitive label, defense label)``
    #: — declaring it opts the defense into experiment E1's executable
    #: Table-1 matrix (undefended baseline flips, attach behaviour on
    #: bare legacy hardware, zero flips once hosted).  ``None`` keeps
    #: the defense out of E1.
    table1_row: Optional[Tuple[str, str]] = None
    #: Names of counters (keys into ``self.counters``) that count
    #: *triggered mitigations* — neighbor refreshes issued, rows
    #: recovered, TRR targets refreshed.  Wrappers that score trust
    #: domains by mitigation pressure (BreakHammer) read these to
    #: attribute blame generically, whatever the base tracker is.
    mitigation_counters: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.system: "System | None" = None
        self.attached = False
        #: free-form counters surfaced in experiment tables
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, system: "System") -> None:
        """Wire the defense into a built system.

        Raises :class:`~repro.core.primitives.MissingPrimitiveError` when
        the platform lacks a required primitive, and ``ValueError`` when a
        defense of the same name is already attached to it (both would
        report under ``defense.<name>.*``).  Both checks run before
        ``_wire``, so a rejected defense leaves no hook behind.
        """
        if self.attached:
            raise RuntimeError(f"{self.name} is already attached")
        system.primitives.require(*self.requires)
        # the system tracks attached defenses; its metrics snapshot
        # reads their live counters (bare test mocks carry no list)
        registered = getattr(system, "defenses", None)
        if registered is not None and any(
            defense.name == self.name for defense in registered
        ):
            raise ValueError(
                f"a defense named {self.name!r} is already attached"
            )
        self.system = system
        self._wire(system)
        self.attached = True
        if registered is not None:
            registered.append(self)

    @abc.abstractmethod
    def _wire(self, system: "System") -> None:
        """Subclass hook: subscribe to interrupts, install gates, set
        allocator policy expectations, etc."""

    def cost(self) -> DefenseCost:
        """Hardware budget; default is free (pure-policy defenses)."""
        return DefenseCost()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def describe(self) -> Dict[str, object]:
        """One table row of static facts about this defense."""
        return {
            "name": self.name,
            "class": self.traits.mitigation_class.value,
            "location": self.traits.location,
            "requires": tuple(p.value for p in self.requires),
            "covers_dma": self.traits.covers_dma,
            "stops_intra_domain": self.traits.stops_intra_domain,
        }
