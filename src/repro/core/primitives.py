"""The proposed memory-controller primitives as negotiable capabilities.

§4 proposes three MC extensions (plus two optional DRAM assists).  In the
simulator they are *capability flags*: a :class:`PrimitiveSet` declares
what the simulated hardware exposes, software defenses declare what they
``require``, and attachment fails loudly when hardware support is absent.
This is what lets the harness run the paper's with/without contrast — the
same defense code either works (primitive present) or cannot even attach
(today's hardware).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable


class Primitive(enum.Enum):
    """Hardware capabilities from Table 1 of the paper."""

    #: §4.1 — MC maps each page to its domain's subarray group while
    #: still interleaving lines across banks.
    SUBARRAY_ISOLATED_INTERLEAVING = "subarray-isolated-interleaving"
    #: §4.2 — ACT_COUNT overflow interrupts report the triggering
    #: physical address (legacy counters exist either way; this flag is
    #: the *precision*).
    PRECISE_ACT_INTERRUPT = "precise-act-interrupt"
    #: §4.2 — uncore (MC-buffer) line move, for cheap aggressor remapping.
    UNCORE_MOVE = "uncore-move"
    #: §4.2 — LLC line/way locking (already present on many ARM parts).
    CACHE_LINE_LOCKING = "cache-line-locking"
    #: §4.3 — host-privileged ``refresh(va, ap)`` instruction.
    REFRESH_INSTRUCTION = "refresh-instruction"
    #: §4.3 — optional DRAM assistance: REF_NEIGHBORS(row, b) command.
    REF_NEIGHBORS_COMMAND = "ref-neighbors-command"
    #: §4.1 — optional DRAM assistance: vendor exposes internal subarray
    #: mappings (otherwise software infers them by hammer templating).
    SUBARRAY_MAP_DISCLOSURE = "subarray-map-disclosure"


class MissingPrimitiveError(Exception):
    """A defense required a primitive the hardware does not expose."""

    def __init__(self, missing: Iterable[Primitive]) -> None:
        names = ", ".join(sorted(p.value for p in missing))
        super().__init__(f"hardware lacks required primitive(s): {names}")
        self.missing = frozenset(missing)


@dataclass(frozen=True)
class PrimitiveSet:
    """What one simulated platform exposes."""

    available: FrozenSet[Primitive] = frozenset()

    @classmethod
    def none(cls) -> "PrimitiveSet":
        """Today's commodity hardware: none of the proposed primitives.
        (Imprecise ACT counting exists but reports no address.)"""
        return cls(frozenset())

    @classmethod
    def proposed(cls) -> "PrimitiveSet":
        """The paper's proposal: all three MC primitives plus the CPU-side
        helpers, without any DRAM cooperation (§4's stated deployment
        point — CPU vendors act alone)."""
        return cls(
            frozenset(
                {
                    Primitive.SUBARRAY_ISOLATED_INTERLEAVING,
                    Primitive.PRECISE_ACT_INTERRUPT,
                    Primitive.UNCORE_MOVE,
                    Primitive.CACHE_LINE_LOCKING,
                    Primitive.REFRESH_INSTRUCTION,
                }
            )
        )

    @classmethod
    def ideal(cls) -> "PrimitiveSet":
        """The long-term world of §5: CPU primitives plus DRAM-vendor
        cooperation (REF_NEIGHBORS, disclosed subarray maps)."""
        return cls(frozenset(Primitive))

    def with_(self, *primitives: Primitive) -> "PrimitiveSet":
        return replace(self, available=self.available | frozenset(primitives))

    def without(self, *primitives: Primitive) -> "PrimitiveSet":
        return replace(self, available=self.available - frozenset(primitives))

    def has(self, primitive: Primitive) -> bool:
        return primitive in self.available

    def require(self, *primitives: Primitive) -> None:
        """Raise :class:`MissingPrimitiveError` unless all are present."""
        missing = frozenset(primitives) - self.available
        if missing:
            raise MissingPrimitiveError(missing)
