"""Attack execution: drive a plan through the core or a DMA engine.

The executor is deliberately dumb — it just hammers the planned lines in
rotation as fast as the machine allows — because that *is* the attack:
everything clever (layout knowledge) lives in the planner, and every
obstacle (throttling, locking, remapping, refreshes) manifests as the
machine slowing the loop down or the flips not happening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.attacks._steady import SteadyChain
from repro.attacks.patterns import AttackPlan
from repro.cpu.mmu import TranslationError
from repro.dram.disturbance import BitFlip

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

#: Rounds :meth:`Attacker.run` and :meth:`Attacker.run_rounds` submit
#: per chain call once every access of a round is resident; flips
#: drain after every call.
CHAIN_ROUNDS = 64


@dataclass
class AttackResult:
    """What an attack run achieved and what it cost."""

    plan: AttackPlan
    hammer_iterations: int
    started_ns: int
    finished_ns: int
    flips: List[BitFlip]

    @property
    def duration_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def cross_domain_flips(self) -> int:
        return sum(1 for flip in self.flips if flip.cross_domain)

    @property
    def intra_domain_flips(self) -> int:
        return sum(1 for flip in self.flips if flip.intra_domain)

    @property
    def succeeded(self) -> bool:
        """An attack 'succeeds' when it corrupts someone else's data."""
        return self.cross_domain_flips > 0


class Attacker:
    """Runs one plan from one tenant, via cache-flush loads or DMA."""

    def __init__(
        self,
        system: "System",
        handle: "DomainHandle",
        plan: AttackPlan,
        use_dma: bool = False,
    ) -> None:
        self.system = system
        self.handle = handle
        self.plan = plan
        self.use_dma = use_dma
        self._dma = system.dma_engine(handle) if use_dma else None
        # (line, weight) rotation cached per plan object — the plan's
        # fields are immutable tuples, so the pairs only change when the
        # plan itself is swapped out.
        self._pairs: Optional[List[tuple]] = None
        self._pairs_plan: Optional[AttackPlan] = None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, duration_ns: int, start_ns: int = 0) -> AttackResult:
        """Hammer for ``duration_ns`` of simulated time: whole rounds,
        each started while the clock is before the deadline.

        Exact and fast: once a round's accesses are resident the rounds
        run as a dependent chain in the controller's bulk engine, with
        interrupt handlers inside it (see :meth:`_hammer`), and the
        result, metrics and CPU state are those of running every round
        through :meth:`_hammer_round`."""
        if duration_ns < 1:
            raise ValueError("duration_ns must be >= 1")
        return self._hammer(start_ns, deadline=start_ns + duration_ns)

    def run_rounds(self, rounds: int, start_ns: int = 0) -> AttackResult:
        """Hammer a fixed number of rotation rounds (deterministic
        work).  Exact and fast, as :meth:`run`."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return self._hammer(start_ns, rounds=rounds)

    # ------------------------------------------------------------------
    # The exact fast path behind run and run_rounds
    # ------------------------------------------------------------------

    def _hammer(
        self,
        start_ns: int,
        deadline: Optional[int] = None,
        rounds: Optional[int] = None,
    ) -> AttackResult:
        """The hammer loop of :meth:`run` (whole rounds until
        ``deadline``) and :meth:`run_rounds` (``rounds`` rounds).

        At each round boundary where every access of the round is
        resident (see :mod:`repro.attacks._steady`), the next
        :data:`CHAIN_ROUNDS` rounds go to
        :meth:`~repro.mc.controller.MemoryController.submit_chain` as
        one dependent chain, with the CPU side applied lazily; otherwise
        the round runs through :meth:`_hammer_round`, which is how the
        loop warms up.

        Host-OS interrupt handlers, and the actions of ACT observers
        (PARA's neighbour refresh, ANVIL's refresh loads), run inside the
        chain.  Before one runs, the CPU side is caught up through the
        access it interrupts, and the flips of earlier rounds, and only
        those, are drained.  That is what the per-access loop, which
        drains after every round, has drained by then, and a handler can
        see it: a drain corrupts data-plane lines, picked from the
        victim row's lines at drain time, and feeds enclaves.  If the
        handler moved a page or locked or evicted a line the chain reads
        (ANVIL's flushes may), the chain ends there and
        :meth:`_finish_round` runs the rest of the round per access.
        Flips drain after every call and every round run here, all at
        round boundaries.

        DMA plans, trace sinks and a wrapped tracker hook keep every
        round on :meth:`_hammer_round` (see
        :attr:`~repro.mc.controller.MemoryController.supports_chain`).
        """
        system = self.system
        controller = system.controller
        system.drain_flips()
        flips: List[BitFlip] = []

        def drain(settled: int) -> None:
            flips.extend(system.drain_flips(settled))

        chain = SteadyChain(system, self.handle.asid, drain)
        now = start_ns
        done = 0
        while ((deadline is None or now < deadline)
               and (rounds is None or done < rounds)
               and self.plan.viable):
            pairs = self._rotation()
            if (self._dma is not None or not controller.supports_chain
                    or not chain.resident(line for line, _ in pairs)):
                now = self._hammer_round(now)
                done += 1
            else:
                column = [line for line, weight in pairs
                          for _ in range(weight)]
                size = len(column)
                take = CHAIN_ROUNDS
                if rounds is not None and rounds - done < take:
                    take = rounds - done
                serviced, now = chain.run(column, take, now, deadline, size)
                full, split = divmod(serviced, size)
                done += full
                if split:
                    # a handler ended the chain inside a round
                    now = self._finish_round(now, split)
                    done += 1
            if system.has_pending_flips():
                flips.extend(system.drain_flips())
        return AttackResult(
            plan=self.plan,
            hammer_iterations=done,
            started_ns=start_ns,
            finished_ns=max(now, start_ns),
            flips=flips,
        )

    def _finish_round(self, now: int, first: int) -> int:
        """Run the round a chain ended in through ``hammer_access``,
        from its access number ``first`` on."""
        hammer_access = self.system.core.hammer_access
        asid = self.handle.asid
        position = 0
        for virtual_line, weight in self._rotation():
            serviced = min(max(first - position, 0), weight)
            position += weight
            for _ in range(weight - serviced):
                try:
                    now = hammer_access(asid, virtual_line, now).done_at_ns
                except TranslationError:
                    # The page vanished (evacuated by a defense).
                    break
        return now

    # ------------------------------------------------------------------
    # Stepping (also the engine-actor interface)
    # ------------------------------------------------------------------

    def step(self, now: int) -> int:
        """One rotation over the aggressor lines; returns the new time.
        This is the quantum the cooperative engine schedules."""
        return self._hammer_round(now)

    def _hammer_round(self, now: int) -> int:
        """One rotation over all aggressor lines (honouring per-line
        weights for Half-Double-style patterns).  A remapped page makes
        the stale virtual line point somewhere new — which is precisely
        the wear-leveling defense working; the attacker keeps hammering
        the same virtual address like the real thing would."""
        pairs = self._rotation()
        dma = self._dma
        if dma is not None:
            physical_line = self.handle.physical_line
            transfer = dma.transfer
            for virtual_line, weight in pairs:
                for _ in range(weight):
                    try:
                        now = transfer(physical_line(virtual_line), now).ready_at_ns
                    except TranslationError:
                        # The page vanished (evacuated by a defense).
                        break
            return now
        hammer_access = self.system.core.hammer_access
        asid = self.handle.asid
        for virtual_line, weight in pairs:
            for _ in range(weight):
                try:
                    now = hammer_access(asid, virtual_line, now).done_at_ns
                except TranslationError:
                    # The page vanished (evacuated by a defense).
                    break
        return now

    def _rotation(self) -> List[tuple]:
        """The plan's (line, weight) pairs, cached per plan object."""
        plan = self.plan
        if self._pairs is None or self._pairs_plan is not plan:
            weights = plan.weights or (1,) * len(plan.aggressor_lines)
            self._pairs = list(zip(plan.aggressor_lines, weights))
            self._pairs_plan = plan
        return self._pairs
