"""The CPU's integrated memory controller — where the paper's primitives live.

The controller owns: the physical→DDR address map (including the
subarray-isolated interleaving primitive), per-channel ACT counters with
(im)precise overflow interrupts, the periodic-refresh engine, and the
back-ends of the proposed ``refresh`` instruction, ``REF_NEIGHBORS``
command, and uncore move (§4.1–4.3).

Timing is request-driven: banks expose ``busy_until``; the controller adds
per-channel data-bus occupancy.  Requests to different banks overlap
(bank-level parallelism); requests to one bank serialize; all transfers on
a channel share its bus — enough fidelity for every claim in the paper
without a cycle-accurate pipeline.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dram.device import DramDevice
from repro.dram.disturbance import BitFlip
from repro.dram.geometry import DdrAddress
from repro.mc.address_map import AddressMapper
from repro.mc.counters import (
    ActCounter,
    ActInterrupt,
    InterruptHandler,
    per_channel_rng,
)
from repro.mc.stats import ControllerStats
from repro.obs import events as _ev
from repro.obs.trace import TraceBus


@dataclass(slots=True)
class MemoryRequest:
    """One cache-line request reaching the controller (an LLC miss,
    writeback, or DMA transfer).

    Treated as immutable by convention but *not* frozen: a frozen slots
    dataclass pays ~2x its construction cost in ``object.__setattr__``
    calls, and this type is allocated once per request on the hottest
    paths in the simulator."""

    time_ns: int
    physical_line: int
    is_write: bool = False
    domain: Optional[int] = None
    is_dma: bool = False

    def __post_init__(self) -> None:
        if self.time_ns < 0:
            raise ValueError("request time must be >= 0")
        if self.physical_line < 0:
            raise ValueError("physical_line must be >= 0")


@dataclass(slots=True)
class CompletedRequest:
    """Outcome of one serviced request.  Immutable by convention, not
    frozen — same construction-cost rationale as :class:`MemoryRequest`."""

    request: MemoryRequest
    address: DdrAddress
    ready_at_ns: int
    caused_act: bool
    buffer_outcome: str  # "hit" | "miss" | "conflict"
    throttled_ns: int
    flips: List[BitFlip]

    @property
    def latency_ns(self) -> int:
        return self.ready_at_ns - self.request.time_ns


# A throttle gate inspects an imminent ACT and returns extra delay in ns
# (0 = proceed immediately).  BlockHammer-style defenses install one.
ActGate = Callable[[DdrAddress, int, Optional[int]], int]

# An ACT observer sees every ACT the controller issues (address, time,
# domain, is_dma).  In-MC tracker defenses (Graphene, TWiCe, PARA) and
# ANVIL subscribe here.  It returns None, or an *action*: a
# zero-argument callable that does whatever touches the device, the
# controller or the LLC (a neighbour refresh, refresh loads, a counter
# reconfiguration).  The decision itself reads no tracker or CPU state,
# so the chain engine can call it inline and run the action once that
# state is exact (see MemoryController.submit_chain).
ActAction = Callable[[], None]
ActObserver = Callable[
    [DdrAddress, int, Optional[int], bool], Optional[ActAction]
]


class MemoryController:
    """One memory controller driving one DRAM device."""

    def __init__(
        self,
        device: DramDevice,
        mapper: AddressMapper,
        act_threshold: int = 1 << 20,
        precise_interrupts: bool = False,
        reset_jitter: int = 0,
        page_policy: str = "open",
        rng: Optional[random.Random] = None,
        trace: Optional[TraceBus] = None,
        counter_seed: Optional[int] = None,
    ) -> None:
        """``page_policy``: "open" keeps rows in the buffer after an
        access (locality-friendly; a lone hammered row self-absorbs into
        buffer hits); "closed" auto-precharges after every access
        (conflict-free for random traffic — and it turns *one-location*
        hammering into a real attack, since every access re-activates)."""
        if mapper.geometry != device.geometry:
            raise ValueError(
                "mapper and device geometries differ: the mapper was built "
                f"for {mapper.geometry!r} but the device has "
                f"{device.geometry!r}"
            )
        if page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.device = device
        self.mapper = mapper
        self.page_policy = page_policy
        self.stats = ControllerStats()
        self.trace = trace if trace is not None else TraceBus()
        self._rng = rng or random.Random(0)
        # Each channel's jitter RNG is seeded ``counter_seed ^ channel``
        # (the same derivation defenses use for their own streams), so no
        # two channels ever share an overflow-jitter sequence — learning
        # one channel's phase tells an evasive attacker nothing about the
        # others.  Without an explicit seed, fall back to drawing one
        # from the controller RNG; the per-channel XOR still applies.
        if counter_seed is None:
            counter_seed = self._rng.randrange(1 << 30)
        self.counter_seed = counter_seed
        self.counters: Dict[int, ActCounter] = {
            channel: ActCounter(
                channel,
                act_threshold,
                precise=precise_interrupts,
                reset_jitter=reset_jitter,
                rng=per_channel_rng(counter_seed, channel),
            )
            for channel in range(device.geometry.channels)
        }
        for counter in self.counters.values():
            counter.on_handler_error = self._on_handler_error
        self._bus_busy_until: Dict[int, int] = {
            channel: 0 for channel in range(device.geometry.channels)
        }
        self._next_ref_at: int = device.timings.tREFI
        self._act_gates: List[ActGate] = []
        self._act_observers: List[ActObserver] = []
        self.refresh_enabled: bool = True
        # Fault-injection seams (installed by repro.faults.plane): the
        # refresh hook may divert a ``refresh`` instruction to a row
        # other than the one software named; the batch hook may stall a
        # scheduler batch.  ``None`` means healthy hardware and costs
        # one attribute load on the affected paths.
        self.refresh_target_fault: Optional[
            Callable[[DdrAddress, int], DdrAddress]
        ] = None
        self.batch_fault: Optional[Callable[[int, int], int]] = None

    # ------------------------------------------------------------------
    # Defense wiring
    # ------------------------------------------------------------------

    def subscribe_interrupts(self, handler: InterruptHandler) -> None:
        """Deliver ACT_COUNT overflow interrupts to ``handler`` (§4.2)."""
        for counter in self.counters.values():
            counter.subscribe(handler)

    def configure_counters(
        self,
        threshold: int,
        precise: Optional[bool] = None,
        reset_jitter: Optional[int] = None,
    ) -> None:
        """Host-OS reconfiguration of the ACT counters."""
        for counter in self.counters.values():
            if precise is not None:
                counter.precise = precise
            if reset_jitter is not None:
                counter.reset_jitter = reset_jitter
            counter.set_threshold(threshold)

    def add_act_gate(self, gate: ActGate) -> None:
        self._act_gates.append(gate)

    def add_act_observer(self, observer: ActObserver) -> None:
        """Subscribe ``observer`` to every ACT the controller issues.

        The request paths run the action it returns at once; the chain
        engine (:meth:`submit_chain`) runs it inside the caller's
        ``before``/``after`` bracket."""
        self._act_observers.append(observer)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def submit(self, request: MemoryRequest) -> CompletedRequest:
        """Service one request; returns its completion record.

        Side effects: periodic REF bursts due before the request are
        executed first; ACT counters/observers/gates fire if the request
        activates a row.
        """
        time_ns = request.time_ns
        if self.refresh_enabled and self._next_ref_at <= time_ns:
            self.advance_to(time_ns)
        device = self.device
        address = self.mapper.line_to_ddr(request.physical_line)
        bank = device.banks[(address.channel, address.rank, address.bank)]
        open_row = bank.open_row
        if open_row == address.row:
            outcome = "hit"
            will_act = False
        elif open_row is None:
            outcome = "miss"
            will_act = True
        else:
            outcome = "conflict"
            will_act = True

        now = time_ns
        throttled = 0
        if will_act:
            for gate in self._act_gates:
                throttled += gate(address, now, request.domain)
            if throttled:
                now += throttled
                self.stats.throttle_stalls_ns += throttled

        data_at_bank, flips = device.access_mapped(
            bank, address, now, request.domain
        )
        bus = self._bus_busy_until
        bus_free = bus[address.channel]
        transfer_start = data_at_bank if data_at_bank > bus_free else bus_free
        done = transfer_start + device.timings.tBL
        bus[address.channel] = done
        if self.page_policy == "closed":
            bank.precharge(data_at_bank)

        trace = self.trace
        if trace.enabled:
            self._trace_access(
                trace, address, request, outcome, open_row, will_act,
                throttled, now, flips,
            )
        if will_act:
            self._note_act(
                address, done, request.physical_line,
                request.domain, request.is_dma,
            )

        self._account(request, outcome, done)
        return CompletedRequest(
            request=request,
            address=address,
            ready_at_ns=done,
            caused_act=will_act,
            buffer_outcome=outcome,
            throttled_ns=throttled,
            flips=flips,
        )

    @property
    def supports_chain(self) -> bool:
        """Whether :meth:`submit_chain` may service a hammer chain.

        It may when no trace sink is enabled (traced runs stay on the
        per-request path) and nobody wrapped the disturbance tracker's
        per-ACT hook on the instance (the deep invariant probes do; the
        chain never calls that hook).  Subscribed interrupt handlers and
        ACT observers do not matter: they run inside the chain, their
        effects between the caller's ``before`` and ``after``
        callbacks."""
        return (
            not self.trace.enabled
            and "on_activate" not in vars(self.device.tracker)
        )

    def submit_chain(
        self,
        line_col,
        domain: Optional[int],
        start_ns: int,
        flush_ns: int,
        fill_ns: int,
        deadline_ns: Optional[int],
        round_len: int,
        before: Callable[[int, int], None],
        after: Callable[[], bool],
    ) -> Tuple[int, int]:
        """Service a dependent chain of reads in one engine call.

        ``line_col`` holds the physical line of every read, in order.
        Each read issues ``flush_ns`` after the previous one retired,
        and retires ``fill_ns`` after its DRAM read completes.  That is
        the serial flush + load loop of
        :meth:`~repro.cpu.core.Core.hammer_access`, where the next
        access waits for the previous load.  The first read issues at
        ``start_ns + flush_ns``.  Requests, ACTs, refresh bursts, gates,
        in-DRAM mitigations, counters and ACT observers land exactly as
        if each read went through :meth:`submit` at its issue time.

        Reads come in rounds of ``round_len``: the chain stops at a
        round boundary once the clock reaches ``deadline_ns`` (None:
        never).

        Host-OS interrupt handlers and the actions ACT observers return
        run in place, bracketed by the caller's callbacks:

        * ``before(i, settled)`` runs just before the handlers that the
          ACT of read ``i`` raises, or an action an observer returns
          for it, once every ACT up to it has reached the tracker and
          the counters.  The caller brings its own state up to read
          ``i`` here.  ``settled`` is the length of the tracker's flip
          list that ACTs of earlier rounds (and handlers and actions
          run in them) account for;
        * ``after()`` runs just after them.  If it returns False, the
          chain ends with read ``i``; the ACT of read ``i`` still
          reaches every observer first, as on :meth:`submit`.

        Returns ``(reads serviced, clock)``, where the clock is the
        retire time of the last serviced read (``start_ns`` if none).
        Callers must check :attr:`supports_chain` first.

        The per-ACT side effects run in the order of :meth:`_note_act`:
        the in-DRAM mitigation samples and disturbance accrues, then
        the counter counts (and its handlers run), then each observer
        decides, in subscription order, its action running before the
        next observer is called.  Two of them are deferred:

        * disturbance accrual goes into address/row/time columns,
          flushed through :meth:`DisturbanceTracker.on_activate_bulk`
          at refresh boundaries, before handlers and actions, and at
          the end of the call, the points where tracker state becomes
          observable;
        * per-channel ACT counts are kept in locals; quiet runs settle
          via :meth:`ActCounter.absorb` and each overflow routes through
          the counter's own scalar path, so jitter redraw, delivery
          filtering and handler dispatch are exact.  Before a handler
          or an action runs, every channel's count, ``stats.acts`` and
          the per-domain histogram are synchronised, and every hoisted
          value is re-read afterwards because either may re-enter the
          controller (targeted refreshes, uncore moves, refresh loads,
          counter reconfiguration).

        ``settled`` comes from marking the tracker and the deferred
        columns at each round boundary and reading each flushed flip's
        position.

        In-DRAM mitigations (:attr:`DramDevice.mitigation`) stay inline
        per ACT: their tables are only *read* at refresh bursts, which
        the engine always runs on flushed state.
        """
        n = len(line_col)
        device = self.device
        # A hammer chain touches a handful of distinct lines, and a
        # column that repeats its first round is mapped one round at a
        # time.
        repeat, rest = divmod(n, round_len)
        unit = line_col[:round_len]
        if rest or unit * repeat != line_col:
            unit, repeat = line_col, 1
        distinct = list(dict.fromkeys(unit))
        line_to_ddr = self.mapper.line_to_ddr
        bank_index_of = device._bank_index
        address_of = {}
        bank_of = {}
        for line in distinct:
            address = address_of[line] = line_to_ddr(line)
            bank_of[line] = bank_index_of[
                (address.channel, address.rank, address.bank)
            ]
        addresses = list(map(address_of.__getitem__, unit)) * repeat
        bank_ids = list(map(bank_of.__getitem__, unit)) * repeat

        timings = device.timings
        tBL = timings.tBL
        tCL = timings.tCL
        tRP = timings.tRP
        tRC = timings.tRC
        tRCD = timings.tRCD
        bus = self._bus_busy_until
        gates = self._act_gates
        # the live list: an observer a handler or an action subscribes
        # sees the very next ACT it would see on submit
        observers = self._act_observers
        closed = self.page_policy == "closed"
        refresh_enabled = self.refresh_enabled
        stats = self.stats
        mitigation = device.mitigation
        tracker = device.tracker
        remapper = device.remapper
        identity_remap = remapper.is_identity()
        to_internal = remapper.to_internal
        counters = self.counters
        bank_list = device.bank_list
        domain_key = -1 if domain is None else domain

        # Deferred ACT columns, flushed together: logical address,
        # internal row (remapped configs only), ACT completion time.
        act_addr: List[DdrAddress] = []
        act_row: List[int] = []
        act_t: List[int] = []
        # ``watch``: some handler or action may run inside the chain, so
        # flips are attributed to rounds: ``settled`` is the tracker
        # flip count that earlier rounds account for and ``round_acts``
        # the deferred ACTs of earlier rounds not yet flushed.
        watch = bool(observers) or any(
            k._handlers for k in counters.values()
        )
        settled = round_acts = 0

        def flush_events() -> None:
            nonlocal act_addr, act_row, act_t, settled, round_acts
            if not act_t:
                return
            act_dom = [domain] * len(act_t)
            # Rows ride along as a plain int column so the tracker's
            # loop skips the remap lookup.
            if watch:
                flip_positions: List[int] = []
                tracker.on_activate_bulk(
                    act_addr, act_t, act_dom, rows=act_row,
                    out_positions=flip_positions,
                )
                if round_acts:
                    # Flips come back in ACT order: those of the first
                    # round_acts ACTs belong to earlier rounds.
                    settled += bisect_left(flip_positions, round_acts)
                    round_acts = 0
            else:
                tracker.on_activate_bulk(
                    act_addr, act_t, act_dom, rows=act_row
                )
            act_addr = []
            act_row = []
            act_t = []

        # Hoisted per-channel counter state; pending = ACTs counted
        # locally but not yet settled into the counter object.
        ch_count = {c: k._count for c, k in counters.items()}
        ch_next = {c: k._next_overflow_at for c, k in counters.items()}
        ch_pending = {c: 0 for c in counters}

        next_ref = self._next_ref_at
        acts_delta = 0
        hits = misses = conflicts = 0
        latency_ns = 0
        busy_until = stats.busy_until_ns
        clock = start_ns
        round_end = 0
        serviced = n
        stop = False

        def settle() -> None:
            """Make the tracker, ``stats.acts`` and every counter exact
            (before a handler or an action runs, and at the end)."""
            nonlocal acts_delta
            flush_events()
            if acts_delta:
                stats.acts += acts_delta
                histogram = stats.acts_by_domain
                histogram[domain_key] = (
                    histogram.get(domain_key, 0) + acts_delta
                )
                acts_delta = 0
            for channel, pending in ch_pending.items():
                if pending:
                    counters[channel].absorb(pending)
                    ch_pending[channel] = 0

        def reread_counters() -> None:
            """Handlers and actions may reconfigure the counters."""
            for channel, counter in counters.items():
                ch_count[channel] = counter._count
                ch_next[channel] = counter._next_overflow_at

        for i in range(n):
            if i == round_end:
                if deadline_ns is not None and clock >= deadline_ns:
                    serviced = i
                    break
                round_end = i + round_len
                if watch:
                    settled = len(tracker.flips)
                    round_acts = len(act_t)
            time_ns = clock + flush_ns
            if refresh_enabled and next_ref <= time_ns:
                # Refresh reads tracker and mitigation state: flush the
                # deferred events so the sweep sees exactly what the
                # scalar path would have accrued by now.
                flush_events()
                self.advance_to(time_ns)
                next_ref = self._next_ref_at
            address = addresses[i]
            channel = address.channel
            bank = bank_list[bank_ids[i]]
            open_row = bank.open_row
            row = address.row
            if open_row == row:
                # BankState.access hit branch, inlined.
                hits += 1
                busy = bank.busy_until
                start = time_ns if time_ns >= busy else busy
                bank.row_hits += 1
                bank.busy_until = start + tBL
                data_at_bank = start + tCL
                will_act = False
            else:
                will_act = True
                now = time_ns
                if gates:
                    throttled = 0
                    for gate in gates:
                        throttled += gate(address, now, domain)
                    if throttled:
                        now += throttled
                        stats.throttle_stalls_ns += throttled
                # BankState.access ACT branch, inlined (including the
                # bank's own counters).
                busy = bank.busy_until
                start = now if now >= busy else busy
                if open_row is None:
                    misses += 1
                    bank.row_misses += 1
                    act_at = start
                else:
                    conflicts += 1
                    bank.row_conflicts += 1
                    bank.precharges += 1
                    act_at = start + tRP
                earliest = bank.last_act_at + tRC
                if act_at < earliest:
                    act_at = earliest
                bank.open_row = row
                bank.acts += 1
                bank.last_act_at = act_at
                bank.busy_until = act_at + tRCD + tBL
                data_at_bank = act_at + tRCD + tCL
                # DramDevice._physical_activate, split: the in-DRAM
                # mitigation samples inline (order-exact); disturbance
                # accrual is deferred into the event columns.
                if mitigation is not None:
                    mitigation.on_activate(address, data_at_bank)
                act_addr.append(address)
                act_row.append(
                    row if identity_remap else to_internal(bank_ids[i], row)
                )
                act_t.append(data_at_bank)
            bus_free = bus[channel]
            transfer_start = (
                data_at_bank if data_at_bank > bus_free else bus_free
            )
            done = transfer_start + tBL
            bus[channel] = done
            if closed:
                bank.precharge(data_at_bank)
            if will_act:
                acts_delta += 1
                count = ch_count[channel] + 1
                pending = ch_pending[channel] + 1
                if count < ch_next[channel]:
                    ch_count[channel] = count
                    ch_pending[channel] = pending
                else:
                    # Overflow: make every piece of architectural state
                    # exact, then let the counter's own scalar path fire
                    # the interrupt machinery.
                    ch_pending[channel] = pending - 1
                    settle()
                    counter = counters[channel]
                    bracket = watch and bool(counter._handlers)
                    if bracket:
                        before(i, settled)
                    counter.on_act(done, line_col[i], False)
                    # Handlers may have re-entered the controller:
                    # re-read everything hoisted.
                    next_ref = self._next_ref_at
                    reread_counters()
                    if bracket and not after():
                        stop = True
                for observer in observers:
                    action = observer(address, done, domain, False)
                    if action is not None:
                        settle()
                        before(i, settled)
                        action()
                        next_ref = self._next_ref_at
                        reread_counters()
                        if not after():
                            stop = True

            latency_ns += done - time_ns
            if done > busy_until:
                busy_until = done
            clock = done + fill_ns
            if stop:
                serviced = i + 1
                break

        settle()
        stats.reads += serviced
        stats.row_hits += hits
        stats.row_misses += misses
        stats.row_conflicts += conflicts
        stats.total_request_latency_ns += latency_ns
        # handlers and actions may have retired requests of their own
        if busy_until > stats.busy_until_ns:
            stats.busy_until_ns = busy_until
        return serviced, clock

    def advance_to(self, now: int) -> None:
        """Execute all periodic REF bursts scheduled before ``now``."""
        if not self.refresh_enabled:
            return
        next_ref = self._next_ref_at
        if next_ref > now:
            return
        device = self.device
        tREFI = device.timings.tREFI
        bursts = 0
        while next_ref <= now:
            device.refresh_burst(next_ref)
            bursts += 1
            next_ref += tREFI
        self._next_ref_at = next_ref
        self.stats.ref_bursts += bursts

    # ------------------------------------------------------------------
    # Primitive back-ends (§4.1–4.3)
    # ------------------------------------------------------------------

    def refresh_line(
        self, physical_line: int, now: int, auto_precharge: bool = True
    ) -> int:
        """Back-end of the proposed ``refresh`` instruction: PRE + ACT
        (+PRE if ``auto_precharge``) on the row holding ``physical_line``.
        Returns completion time.  The ACT side effect goes through the
        same counting/observation path as any other ACT — the instruction
        is not exempt from the MC's own bookkeeping."""
        self.advance_to(now)
        address = self.mapper.line_to_ddr(physical_line)
        if self.refresh_target_fault is not None:
            # Fault seam: the command that actually reaches the bus may
            # target a different row than software named.  Accounting
            # below reflects the *actual* command; software's belief
            # that the named row was refreshed is exactly the blind spot
            # the deep invariant probes exist to expose.
            address = self.refresh_target_fault(address, now)
        ready, _flips = self.device.activate(
            address, now, domain=None, precharge_after=auto_precharge,
            refresh_only=True,
        )
        self.stats.targeted_refreshes += 1
        self.stats.acts += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.TARGETED_REFRESH, now, line=physical_line,
                row=[address.channel, address.rank, address.bank, address.row],
            )
        for observer in self._act_observers:
            action = observer(address, ready, None, False)
            if action is not None:
                action()
        return ready

    def ref_neighbors_line(
        self, physical_line: int, blast_radius: int, now: int
    ) -> int:
        """Back-end of the proposed REF_NEIGHBORS DDR command (§4.3)."""
        self.advance_to(now)
        address = self.mapper.line_to_ddr(physical_line)
        done = self.device.ref_neighbors(address, blast_radius, now)
        self.stats.neighbor_refresh_commands += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.NEIGHBOR_REFRESH, now, line=physical_line,
                radius=blast_radius,
                row=[address.channel, address.rank, address.bank, address.row],
            )
        return done

    def uncore_move(self, src_line: int, dst_line: int, now: int) -> int:
        """Back-end of the proposed uncore move (§4.2): copy one cache
        line DRAM-to-DRAM through MC buffers, never touching core
        registers.  Returns completion time."""
        read_done = self.submit(
            MemoryRequest(time_ns=now, physical_line=src_line, is_write=False)
        ).ready_at_ns
        write_done = self.submit(
            MemoryRequest(
                time_ns=read_done, physical_line=dst_line, is_write=True
            )
        ).ready_at_ns
        self.stats.uncore_moves += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.UNCORE_MOVE, now, src_line=src_line, dst_line=dst_line,
            )
        return write_done

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_handler_error(
        self,
        interrupt: ActInterrupt,
        handler: InterruptHandler,
        error: Exception,
    ) -> None:
        """A subscribed host-OS interrupt handler raised: count it and
        put it on the trace so the failure is diagnosable instead of
        silently swallowed (and never lets it unwind the request path)."""
        self.stats.interrupt_handler_failures += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.HANDLER_ERROR, interrupt.time_ns,
                channel=interrupt.channel,
                handler=getattr(handler, "__qualname__", repr(handler)),
                error=f"{type(error).__name__}: {error}",
            )

    def _note_act(
        self,
        address: DdrAddress,
        time_ns: int,
        physical_line: int,
        domain: Optional[int],
        is_dma: bool,
    ) -> None:
        stats = self.stats
        stats.acts += 1
        histogram = stats.acts_by_domain
        domain_key = -1 if domain is None else domain
        histogram[domain_key] = histogram.get(domain_key, 0) + 1
        interrupt = self.counters[address.channel].on_act(
            time_ns, physical_line, is_dma
        )
        if interrupt is not None and self.trace.enabled:
            self.trace.emit(
                _ev.ACT_INTERRUPT, interrupt.time_ns,
                channel=interrupt.channel,
                count=interrupt.count_at_overflow,
                line=interrupt.physical_line,
                dma=interrupt.from_dma,
            )
        for observer in self._act_observers:
            action = observer(address, time_ns, domain, is_dma)
            if action is not None:
                action()

    def _trace_access(
        self,
        trace: TraceBus,
        address: DdrAddress,
        request: MemoryRequest,
        outcome: str,
        open_row: Optional[int],
        will_act: bool,
        throttled: int,
        now: int,
        flips: List[BitFlip],
    ) -> None:
        """Emit the events of one serviced request (tracing only)."""
        if will_act:
            trace.emit(
                _ev.ACT, now,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row,
                line=request.physical_line, domain=request.domain,
                dma=request.is_dma,
            )
        if outcome == "conflict":
            trace.emit(
                _ev.ROW_CONFLICT, now,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row, closed_row=open_row,
                line=request.physical_line, domain=request.domain,
            )
        if throttled:
            trace.emit(
                _ev.THROTTLE_STALL, request.time_ns,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row,
                stall_ns=throttled, domain=request.domain,
            )
        for flip in flips:
            trace.emit(
                _ev.BIT_FLIP, flip.time_ns,
                victim=list(flip.victim), aggressor=list(flip.aggressor),
                aggressor_domain=flip.aggressor_domain,
                victim_domains=sorted(flip.victim_domains),
                bits=flip.flipped_bits,
            )

    def _account(self, request: MemoryRequest, outcome: str, done: int) -> None:
        if request.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if request.is_dma:
            self.stats.dma_requests += 1
        if outcome == "hit":
            self.stats.row_hits += 1
        elif outcome == "miss":
            self.stats.row_misses += 1
        else:
            self.stats.row_conflicts += 1
        self.stats.total_request_latency_ns += done - request.time_ns
        self.stats.busy_until_ns = max(self.stats.busy_until_ns, done)
