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
from repro.cpu.core import LLC_HIT_LATENCY_NS
from repro.cpu.mmu import TranslationError
from repro.dram.disturbance import BitFlip
from repro.mc.controller import MemoryRequest

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
        """Hammer a fixed number of rotation rounds (deterministic work,
        used by benchmarks).  Exact and fast, as :meth:`run`."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return self._hammer(start_ns, rounds=rounds)

    def run_rounds_columnar(
        self,
        rounds: int,
        start_ns: int = 0,
        rounds_per_batch: int = 128,
        frontend: str = "bulk",
    ) -> AttackResult:
        """Columnar variant of :meth:`run_rounds` for benchmarks, with
        approximate timing.  :meth:`run` and :meth:`run_rounds` are the
        exact fast path: they feed the same bulk engine a dependent
        chain and match the per-access loop to the nanosecond.

        ``frontend="scalar"`` is the reference implementation: the cache
        side of every flush+load runs per access — translation,
        ``clflush`` (LockError, writebacks), and the LLC probe — so
        locking and remapping defenses behave identically, and only the
        resulting DRAM reads are accumulated into one struct-of-arrays
        batch per ``rounds_per_batch`` rounds and serviced through
        :meth:`~repro.mc.controller.MemoryController.submit_columnar`.

        ``frontend="bulk"`` (the default) is result-identical but
        *steady-state replicating*: a hammer loop reaches a fixed point
        within a few rounds (the aggressor lines settle into their cache
        sets and TLB entries, every flush+load pair leaves the CPU state
        exactly where it was), after which each batch performs identical
        cache/TLB/translation work and submits an identical request
        column.  The executor detects that fixed point — two consecutive
        scalar-built batches that submit the same column, advance time
        by the same pattern, perform no scalar submits, and leave the
        same signature over the touched cache sets, the TLB, and the
        page table — and then *replays* the remaining batches: CPU-side
        counters advance by the measured per-batch deltas and the frozen
        column is resubmitted per batch (times rebased to the running
        clock), skipping the per-access Python loop entirely.  The DRAM
        side still sees every request: ACT counters, trackers,
        mitigations, and flips are live, which is why replay is gated on
        :attr:`~repro.mc.controller.MemoryController.supports_columnar_run`
        (an interrupt handler could remap pages mid-batch and break the
        fixed point; scalar-only observers imply the slow engine path
        anyway).

        Timing is a documented approximation of the object path: the
        serial ``done + LLC_HIT_LATENCY_NS`` chain between consecutive
        hammer accesses collapses to the controller's own bank/bus
        serialization within each batch (plus one LLC latency per
        batch), so finish times differ from :meth:`run_rounds`, and so
        can ACT interleaving against refresh, defense reactions and
        flips (8-sided at spacing 2 on lpddr4 against vendor TRR,
        6,400 rounds: 151 flips here, 1 on the per-access loop).  DMA
        plans have no columnar path (DMA bypasses the MC request queue
        modelled by the batch engine) and delegate to
        :meth:`run_rounds`, counted in ``mc.columnar_fallbacks``.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if frontend not in ("bulk", "scalar"):
            raise ValueError("frontend must be 'bulk' or 'scalar'")
        system = self.system
        controller = system.controller
        plan = self.plan
        pairs = self._rotation()
        if self._dma is not None:
            controller._note_columnar_fallback(
                "dma", rounds * sum(w for _, w in pairs), start_ns
            )
            return self.run_rounds(rounds, start_ns)
        from repro.cpu.cache import LockError
        from repro.sim.columnar import ColumnarBatch

        core = system.core
        cache = core.cache
        translate = core.mmu.translate_line
        submit_columnar = controller.submit_columnar
        asid = self.handle.asid
        batch = ColumnarBatch()
        system.drain_flips()
        flips: List[BitFlip] = []
        now = start_ns
        done_rounds = 0
        replicate = frontend == "bulk"
        # Fixed-point machinery: the previous batch's identity
        # (column bytes, relative time offsets, CPU-counter deltas,
        # post-batch state signature) and the frozen steady template.
        previous = None
        steady = None
        while done_rounds < rounds and plan.viable:
            take = min(rounds_per_batch, rounds - done_rounds)
            if steady is not None and take == rounds_per_batch:
                line_bytes, offsets, advance, deltas, signature = steady
                self._apply_cpu_deltas(deltas)
                size = len(line_bytes) // 8
                if size:
                    replay = ColumnarBatch()
                    replay.load_window(
                        line_bytes, b"\x00" * size, now, asid, size
                    )
                    if advance:
                        issue = replay.issue_ns
                        for position, offset in offsets:
                            issue[position] = now + offset
                    done = submit_columnar(replay)
                    pre = now + advance
                    now = done if done > pre else pre
                    now += LLC_HIT_LATENCY_NS
                else:
                    now += advance
                done_rounds += take
                if system.has_pending_flips():
                    flips.extend(system.drain_flips())
                continue
            batch.clear()
            line_col = batch.line
            write_col = batch.is_write
            time_col = batch.issue_ns
            dom_col = batch.domain
            counters_before = self._cpu_counters()
            batch_start = now
            clean = replicate and take == rounds_per_batch
            for _ in range(take):
                for virtual_line, weight in pairs:
                    for _ in range(weight):
                        core.flushes += 1
                        try:
                            physical = translate(asid, virtual_line)
                        except TranslationError:
                            # The page vanished (evacuated by a defense).
                            clean = False
                            break
                        try:
                            writeback = cache.flush(physical)
                        except LockError:
                            core.blocked_flushes += 1
                        else:
                            if writeback is not None:
                                # Dirty eviction: rare on a load hammer,
                                # and ordering-sensitive — submit it
                                # scalar at the current time.
                                clean = False
                                done = controller.submit(
                                    MemoryRequest(
                                        time_ns=now,
                                        physical_line=writeback,
                                        is_write=True,
                                        domain=asid,
                                    )
                                ).ready_at_ns
                                if done > now:
                                    now = done
                        core.loads += 1
                        result = cache.access(physical, is_write=False)
                        if result.hit:
                            # Pinned by a locking defense: the LLC
                            # absorbs the load, no DRAM request.
                            now += LLC_HIT_LATENCY_NS + 1
                            continue
                        if result.writeback_line is not None:
                            clean = False
                            done = controller.submit(
                                MemoryRequest(
                                    time_ns=now,
                                    physical_line=result.writeback_line,
                                    is_write=True,
                                    domain=asid,
                                )
                            ).ready_at_ns
                            if done > now:
                                now = done
                        line_col.append(physical)
                        write_col.append(0)
                        time_col.append(now)
                        dom_col.append(asid)
            advance = now - batch_start
            if len(batch):
                done = submit_columnar(batch)
                if done > now:
                    now = done
                now += LLC_HIT_LATENCY_NS
            done_rounds += take
            if system.has_pending_flips():
                flips.extend(system.drain_flips())
            if clean and controller.supports_columnar_run:
                line_bytes = line_col.tobytes()
                offsets = tuple(
                    (position, time_col[position] - batch_start)
                    for position in range(len(time_col))
                    if time_col[position] != batch_start
                )
                deltas = tuple(
                    after - before
                    for after, before in zip(
                        self._cpu_counters(), counters_before
                    )
                )
                signature = self._steady_signature(line_col)
                identity = (line_bytes, offsets, advance, deltas)
                if (previous is not None
                        and previous[0] == identity
                        and previous[1] == signature):
                    steady = (
                        line_bytes, offsets, advance, deltas, signature
                    )
                previous = (identity, signature)
            else:
                previous = None
        return AttackResult(
            plan=plan,
            hammer_iterations=done_rounds,
            started_ns=start_ns,
            finished_ns=max(now, start_ns),
            flips=flips,
        )

    def _cpu_counters(self) -> tuple:
        """The CPU-side counters a hammer batch moves (for fixed-point
        delta replay)."""
        core = self.system.core
        cache = core.cache
        tlb = core.mmu.tlb
        return (
            core.flushes, core.blocked_flushes, core.loads,
            cache.hits, cache.misses, cache.evictions, cache.writebacks,
            cache.locked_hits, tlb.hits, tlb.misses, tlb.evictions,
        )

    def _apply_cpu_deltas(self, deltas: tuple, rounds: int = 1) -> None:
        """Advance the CPU counters by ``rounds`` times ``deltas``."""
        core = self.system.core
        cache = core.cache
        tlb = core.mmu.tlb
        (core.flushes, core.blocked_flushes, core.loads,
         cache.hits, cache.misses, cache.evictions, cache.writebacks,
         cache.locked_hits, tlb.hits, tlb.misses, tlb.evictions) = tuple(
            value + delta * rounds
            for value, delta in zip(self._cpu_counters(), deltas)
        )

    def _steady_signature(self, physical_lines) -> tuple:
        """Everything CPU-side a hammer batch could have perturbed: the
        touched cache sets (content and LRU order), the lock set, the
        full TLB (entries and order), and the page-table version.  Two
        consecutive batches with equal signatures and equal columns are
        at the hammer loop's fixed point."""
        system = self.system
        cache = system.cache
        mmu = system.mmu
        touched = sorted({line % cache.sets for line in physical_lines})
        return (
            mmu.table(self.handle.asid).version,
            tuple(mmu.tlb._entries.items()),
            tuple(
                (index, tuple(cache._sets[index].items()))
                for index in touched
            ),
            tuple(sorted(cache._locked)),
        )

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

        Host-OS interrupt handlers run inside the chain.  Before one
        runs, the CPU side is caught up through the access it
        interrupts, and the flips of earlier rounds, and only those,
        are drained.  That is what the per-access loop, which drains
        after every round, has drained by then, and a handler can see
        it: a drain corrupts data-plane lines, picked from the victim
        row's lines at drain time, and feeds enclaves.  If the handler
        moved a page or locked or evicted a line the chain reads, the
        chain ends there and :meth:`_finish_round` runs the rest of the
        round per access.  Flips drain after every call and every round
        run here, all at round boundaries.

        DMA plans, trace sinks, profilers and ACT observers without a
        bulk twin keep every round on :meth:`_hammer_round` (see
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
