"""The steady-state rule both hammer loops share.

A stretch of flush+load accesses is *resident* when every line it
touches is TLB-resident with its current frame, and LLC-resident, clean
and unlocked.  A flush+load of such a line (``Core.hammer_access``)
then does nothing on the CPU side but move its TLB entry and its LLC
line to MRU, and add 1 each to ``core.flushes``, ``core.loads``,
``cache.misses`` and ``tlb.hits``: the clean flush frees the way the
load refills, so nothing is evicted or written back.

:class:`SteadyChain` hands such a stretch to
:meth:`~repro.mc.controller.MemoryController.submit_chain` and applies
its CPU side lazily.  LRU promotions commute into "untouched entries
keep their order, touched ones follow in the order of their last
access", so catching up promotes each distinct line once, in that
order, and adds the stretch length to the four counters.  It catches
up before every host-OS interrupt handler runs inside the chain (the
handler sees exactly the per-access state) and at the end of the call;
after a handler it re-checks residency, and the chain ends if a page
moved or a line was locked or evicted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cpu.core import LLC_HIT_LATENCY_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


class SteadyChain:
    """Runs resident stretches of one domain's hammer accesses on the
    controller's chain engine.

    ``drain``, when given, is called before each in-chain handler with
    the tracker flip count that ACTs of earlier rounds account for (see
    :meth:`~repro.mc.controller.MemoryController.submit_chain`)."""

    def __init__(
        self,
        system: "System",
        asid: int,
        drain: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.core = system.core
        self.controller = system.controller
        self.cache = system.cache
        self.tlb = system.mmu.tlb
        self.asid = asid
        self.lines_per_page = system.mmu.lines_per_page
        self.drain = drain
        # the stretch in flight: its virtual lines, each distinct line's
        # (LLC set, physical line, TLB key), the accesses whose CPU side
        # is applied, and how far back a catch-up must look
        self._lines: List[int] = []
        self._info: Dict[int, Tuple[object, int, Tuple[int, int]]] = {}
        self._synced = 0
        self._span = 0

    def resolve(self, virtual_line: int) -> Optional[int]:
        """The physical line a flush+load of ``virtual_line`` reads, if
        that access is resident; None otherwise."""
        per_page = self.lines_per_page
        page = virtual_line // per_page
        frame = self.tlb._entries.get((self.asid, page))
        if frame is None:
            return None
        line = frame * per_page + virtual_line - page * per_page
        cache = self.cache
        if line in cache._locked:
            return None
        # absent (None) or dirty (True) both fail
        if cache._sets[line % cache.sets].get(line) is not False:
            return None
        return line

    def resident(self, virtual_lines) -> bool:
        """Whether every access to ``virtual_lines`` is resident."""
        resolve = self.resolve
        return all(resolve(line) is not None for line in virtual_lines)

    def run(
        self,
        virtual_lines: List[int],
        repeat: int,
        start_ns: int,
        deadline_ns: Optional[int],
        round_len: int,
    ) -> Tuple[int, int]:
        """Hammer ``virtual_lines``, ``repeat`` times over, as one chain
        (every access resident; see :meth:`resident`); returns
        ``(accesses serviced, clock)`` with the CPU side caught up
        through the last serviced access.  ``round_len`` is the
        engine's deadline granularity (see
        :meth:`~repro.mc.controller.MemoryController.submit_chain`)."""
        cache = self.cache
        sets = cache._sets
        nsets = cache.sets
        asid = self.asid
        per_page = self.lines_per_page
        physical_of = {}
        info = {}
        for line in dict.fromkeys(virtual_lines):
            physical = self.resolve(line)
            physical_of[line] = physical
            info[line] = (sets[physical % nsets], physical,
                          (asid, line // per_page))
        self._lines = virtual_lines * repeat
        self._info = info
        self._synced = 0
        # every distinct line recurs within any len(virtual_lines)
        # consecutive accesses, so a catch-up looks back no further
        self._span = len(virtual_lines)
        # hammer_access: a clean clflush costs 1 ns, and the load retires
        # LLC_HIT_LATENCY_NS after its DRAM read.
        serviced, clock = self.controller.submit_chain(
            list(map(physical_of.__getitem__, virtual_lines)) * repeat,
            asid, start_ns, 1, LLC_HIT_LATENCY_NS, deadline_ns, round_len,
            self._before, self._after,
        )
        self._catch_up(serviced)
        return serviced, clock

    def _before(self, index: int, settled: int) -> None:
        # access ``index`` flushed and loaded before its ACT raised the
        # interrupt
        self._catch_up(index + 1)
        if self.drain is not None:
            self.drain(settled)

    def _after(self) -> bool:
        resolve = self.resolve
        return all(
            resolve(line) == physical
            for line, (_, physical, _) in self._info.items()
        )

    def _catch_up(self, upto: int) -> None:
        """Apply the CPU side of accesses ``[synced, upto)``."""
        count = upto - self._synced
        if count <= 0:
            return
        start = upto - self._span if count > self._span else self._synced
        info = self._info
        promote = self.tlb._entries.move_to_end
        # distinct lines in the order of their last access
        for line in reversed(dict.fromkeys(
                reversed(self._lines[start:upto]))):
            cache_set, physical, key = info[line]
            cache_set.move_to_end(physical)
            promote(key)
        core = self.core
        core.flushes += count
        core.loads += count
        self.cache.misses += count
        self.tlb.hits += count
        self._synced = upto
