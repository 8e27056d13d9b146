"""Memory-controller ACT counters and the precise-interrupt primitive.

Existing Intel uncore counters can count ACTs per channel and interrupt
after a configurable count, but report *no address* (§4.2) — system
software learns "some row got activated a lot" and cannot act.  The
paper's primitive augments the ACT_COUNT overflow event to report the
physical (cache-line) address of the RD/WR that triggered the latest ACT.

Two further details from §4.2 are modelled:

* the host OS resets the counter to an arbitrary value after each
  overflow, and can *randomize* the reset so attackers cannot pace their
  ACTs to stay just under the detection threshold (experiment E10);
* the counter sits in the MC, after the point where core and DMA traffic
  merge, so DMA-driven ACTs are counted — unlike the core performance
  counters ANVIL relies on (experiment E7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class ActInterrupt:
    """One ACT_COUNT overflow event delivered to the host OS.

    ``physical_line`` is the cache-line index whose RD/WR caused the
    latest ACT — present only when the MC implements the paper's precise
    primitive, ``None`` on legacy hardware.  ``from_dma`` flags whether
    the triggering request was a direct memory access (visible to the MC,
    invisible to core counters).
    """

    time_ns: int
    channel: int
    count_at_overflow: int
    physical_line: Optional[int]
    from_dma: bool


InterruptHandler = Callable[[ActInterrupt], None]

# Delivery-path hook (fault injection): inspects an interrupt about to be
# delivered to the host OS and returns the interrupt that actually arrives
# — possibly delayed or with a corrupted count — or ``None`` when the
# delivery is lost entirely.  The hardware-side bookkeeping (counts,
# ``interrupts_raised``) is unaffected; only host visibility is.
DeliveryFilter = Callable[[ActInterrupt], Optional[ActInterrupt]]

# Handler-failure hook: (interrupt, handler, error) after a subscribed
# handler raised.  Installed by the MC so failures reach the obs layer.
HandlerErrorHook = Callable[[ActInterrupt, InterruptHandler, Exception], None]


def per_channel_rng(seed: int, channel: int) -> random.Random:
    """The canonical per-channel RNG derivation: ``seed ^ channel``,
    mirroring how defenses derive their own streams from the system seed
    (e.g. PARA's ``config.seed ^ 0xBA5E``).  Keeping the derivation in
    one place is what guarantees two channels never share a jitter
    sequence — the §4.2 anti-evasion property E10 measures."""
    return random.Random(seed ^ channel)


class ActCounter:
    """Per-channel ACT counter with configurable overflow interrupt.

    ``precise=True`` models the paper's primitive (address reported);
    ``precise=False`` models today's hardware (count only).

    ``reset_jitter`` > 0 randomizes the post-overflow reset value within
    ``[0, reset_jitter]`` counted ACTs, advancing the next overflow by a
    secret amount (§4.2's anti-evasion measure).
    """

    def __init__(
        self,
        channel: int,
        threshold: int,
        precise: bool = True,
        reset_jitter: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_jitter < 0:
            raise ValueError("reset_jitter must be >= 0")
        if reset_jitter >= threshold:
            raise ValueError("reset_jitter must be smaller than the threshold")
        self.channel = channel
        self.threshold = threshold
        self.precise = precise
        self.reset_jitter = reset_jitter
        # Default RNG: derived from the channel index, never a shared
        # constant.  ``random.Random(0)`` here once gave every channel
        # the *identical* jitter sequence, so an attacker who learned one
        # channel's overflow phase knew them all — exactly the evasion
        # §4.2's jitter exists to prevent.  Wiring code (the MC) passes
        # an explicit per-channel RNG derived from the system seed.
        self._rng = rng if rng is not None else per_channel_rng(0xAC7C0, channel)
        self._count = 0
        self._next_overflow_at = self._draw_overflow_point()
        self._handlers: List[InterruptHandler] = []
        self.delivery_filter: Optional[DeliveryFilter] = None
        self.read_filter: Optional[Callable[[int], int]] = None
        self.on_handler_error: Optional[HandlerErrorHook] = None
        self.total_acts = 0
        self.interrupts_raised = 0
        self.interrupts_delivered = 0
        self.interrupts_lost = 0
        self.handler_failures = 0

    # ------------------------------------------------------------------
    # Host-OS interface
    # ------------------------------------------------------------------

    def subscribe(self, handler: InterruptHandler) -> None:
        """Register a host-OS interrupt handler."""
        self._handlers.append(handler)

    def read_count(self) -> int:
        """Host-OS read of the live count (what an uncore-counter RDMSR
        returns).  ``read_filter`` is the fault-injection seam for §4.2's
        unreliable-hardware concern: the *architectural* count is
        unaffected, only the value software observes."""
        if self.read_filter is not None:
            return self.read_filter(self._count)
        return self._count

    @property
    def pending(self) -> Tuple[int, int]:
        """Oracle view ``(count, next_overflow_at)`` for invariants and
        tests — never routed through the read filter."""
        return self._count, self._next_overflow_at

    def set_threshold(self, threshold: int) -> None:
        """Reconfigure the overflow threshold (host-OS controlled, §4.2).

        The accumulated in-flight count is *preserved*: reconfiguration
        re-draws only the overflow point under the new threshold.  An
        earlier version zeroed ``_count`` here, which meant any host-OS
        reconfiguration mid-window forgave every ACT already counted —
        an attacker who could provoke reconfigurations (or merely time
        its bursts around routine ones) paced below detection for free.
        If the ACTs already counted meet the new (possibly smaller)
        overflow point, the very next ACT delivers the interrupt.
        """
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.reset_jitter >= threshold:
            raise ValueError("threshold must exceed the configured jitter")
        self.threshold = threshold
        self._next_overflow_at = self._draw_overflow_point()

    def forgive_pending(self) -> None:
        """Zero the in-flight count.  Fault-emulation seam only: this
        re-creates the historical ``set_threshold`` bug (reconfiguration
        forgiving every counted ACT) so the differential harness can
        demonstrate what the fix buys.  Nothing in the production wiring
        calls this."""
        self._count = 0

    # ------------------------------------------------------------------
    # MC-side event ingestion
    # ------------------------------------------------------------------

    def on_act(
        self,
        time_ns: int,
        physical_line: int,
        from_dma: bool,
    ) -> Optional[ActInterrupt]:
        """Record one ACT on this channel; deliver an interrupt on
        overflow.  Returns the interrupt, if one fired."""
        self.total_acts += 1
        self._count += 1
        if self._count < self._next_overflow_at:
            return None
        interrupt = ActInterrupt(
            time_ns=time_ns,
            channel=self.channel,
            count_at_overflow=self._count,
            physical_line=physical_line if self.precise else None,
            from_dma=from_dma,
        )
        self.interrupts_raised += 1
        self._count = 0
        self._next_overflow_at = self._draw_overflow_point()
        delivered: Optional[ActInterrupt] = interrupt
        if self.delivery_filter is not None:
            # Fault-injection seam: the hardware raised the interrupt
            # (counts above already reflect that); the delivery to the
            # host may be dropped, delayed, or corrupted.
            delivered = self.delivery_filter(interrupt)
            if delivered is None:
                self.interrupts_lost += 1
                return None
        self.interrupts_delivered += 1
        # Handlers are isolated from each other: one raising host-OS
        # handler must not starve later subscribers, nor propagate into
        # the MC request path it was called from.  Failures are counted
        # and surfaced through ``on_handler_error`` (the MC routes them
        # to the obs layer) instead of unwinding the hot path.
        for handler in self._handlers:
            try:
                handler(delivered)
            except Exception as error:
                self.handler_failures += 1
                if self.on_handler_error is not None:
                    self.on_handler_error(delivered, handler, error)
        return delivered

    def absorb(self, count: int) -> None:
        """Count ``count`` ACTs known not to reach the overflow point.

        The chain engine's batch-end synchronisation: it tracks the
        live count locally (dispatching through :meth:`on_act` at each
        crossing) and settles the quiet remainder here.  Refuses a run
        that would cross — that must go through :meth:`on_act` so the
        interrupt machinery fires.
        """
        if count <= 0:
            return
        if self._count + count >= self._next_overflow_at:
            raise ValueError(
                "absorb() would cross the overflow point; "
                "route the crossing ACT through on_act()"
            )
        self._count += count
        self.total_acts += count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _draw_overflow_point(self) -> int:
        """ACTs until the next overflow, shortened by secret jitter."""
        if self.reset_jitter:
            return max(1, self.threshold - self._rng.randint(0, self.reset_jitter))
        return self.threshold
