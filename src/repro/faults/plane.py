"""The fault plane: deterministic injectors hooked into a built system.

A :class:`FaultPlane` takes one :class:`~repro.faults.config.FaultConfig`
and installs its injectors into the seams the rest of the codebase
exposes for exactly this purpose:

* :attr:`ActCounter.delivery_filter` — drop or delay ACT_COUNT overflow
  interrupts before the host OS sees them;
* :attr:`ActCounter.read_filter` — corrupt defense-visible counter reads
  (the architectural count is untouched);
* :attr:`MemoryController.refresh_target_fault` — divert the proposed
  ``refresh(va, ap)`` instruction onto the wrong row (garbled row bits);
* :attr:`MemoryController.batch_fault` — stall every Nth scheduler batch;
* an ACT observer that replays host-OS reconfiguration storms against
  the counters (optionally emulating the historical ``set_threshold``
  bug that forgave the in-flight count).

Every injector draws from its own RNG stream derived from
``(system seed, fault seed, injector salt)``, so a scenario re-run with
the same seeds injects at identical points regardless of which other
injectors are active.  Injection counts live in :attr:`counters`
(reported as ``faults.*`` by the system's metrics snapshot) and each
injection lands on the trace bus as a ``fault_injected`` event when
tracing is on.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Dict, Optional

from repro.faults.config import FaultConfig
from repro.mc.counters import ActInterrupt
from repro.obs import events as _ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.geometry import DdrAddress
    from repro.mc.controller import ActAction
    from repro.sim.system import System


def _injector_rng(system_seed: int, fault_seed: int, salt: int) -> random.Random:
    """One independent stream per injector: mixing the salt into a
    product keeps streams apart even when ``fault_seed`` is 0."""
    return random.Random((system_seed * 0x9E3779B1) ^ (fault_seed << 8) ^ salt)


class FaultPlane:
    """All active injectors of one simulated platform."""

    def __init__(self, config: FaultConfig, system_seed: int) -> None:
        self.config = config
        self.system: "System | None" = None
        self.counters: Dict[str, int] = {
            "interrupts_dropped": 0,
            "interrupts_delayed": 0,
            "refreshes_corrupted": 0,
            "batches_stalled": 0,
            "reads_corrupted": 0,
            "reconfig_storms": 0,
        }
        seed = config.seed
        self._rng_drop = _injector_rng(system_seed, seed, 0xD20B)
        self._rng_delay = _injector_rng(system_seed, seed, 0xDE1A)
        self._rng_refresh = _injector_rng(system_seed, seed, 0x2EF2)
        self._rng_read = _injector_rng(system_seed, seed, 0x2EAD)
        self._acts_seen = 0
        self._batches_seen = 0
        self._trace = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, system: "System") -> None:
        """Install every configured injector into a built system."""
        if self.system is not None:
            raise RuntimeError("fault plane is already attached")
        self.system = system
        self._trace = system.trace
        config = self.config
        controller = system.controller
        if config.drop_interrupt_rate or (
            config.delay_interrupt_rate and config.delay_interrupt_ns
        ):
            for counter in controller.counters.values():
                counter.delivery_filter = self._filter_delivery
        if config.flip_count_read_rate:
            for counter in controller.counters.values():
                counter.read_filter = self._filter_read
        if config.corrupt_refresh_rate:
            controller.refresh_target_fault = self._corrupt_refresh_target
        if config.stall_batch_every and config.stall_batch_ns:
            controller.batch_fault = self._stall_batch
        if config.reconfig_every_acts:
            controller.add_act_observer(self._on_act_reconfig)

    # ------------------------------------------------------------------
    # Injectors
    # ------------------------------------------------------------------

    def _filter_delivery(
        self, interrupt: ActInterrupt
    ) -> Optional[ActInterrupt]:
        config = self.config
        if (
            config.drop_interrupt_rate
            and self._rng_drop.random() < config.drop_interrupt_rate
        ):
            self.counters["interrupts_dropped"] += 1
            self._emit(
                interrupt.time_ns, "drop_interrupt", channel=interrupt.channel
            )
            return None
        if (
            config.delay_interrupt_rate
            and config.delay_interrupt_ns
            and self._rng_delay.random() < config.delay_interrupt_rate
        ):
            self.counters["interrupts_delayed"] += 1
            self._emit(
                interrupt.time_ns, "delay_interrupt",
                channel=interrupt.channel, delay_ns=config.delay_interrupt_ns,
            )
            return dataclasses.replace(
                interrupt, time_ns=interrupt.time_ns + config.delay_interrupt_ns
            )
        return interrupt

    def _filter_read(self, count: int) -> int:
        if self._rng_read.random() < self.config.flip_count_read_rate:
            self.counters["reads_corrupted"] += 1
            return count ^ (1 << self.config.flip_count_bit)
        return count

    def _corrupt_refresh_target(
        self, address: "DdrAddress", now: int
    ) -> "DdrAddress":
        if self._rng_refresh.random() >= self.config.corrupt_refresh_rate:
            return address
        assert self.system is not None
        rows = self.system.geometry.rows_per_bank
        if rows < 2:  # pragma: no cover - single-row geometry
            return address
        # Bus-corruption model: the row bits the command carries are
        # garbled, so the refresh lands on an arbitrary row of the same
        # bank.  (A mere off-by-one deflection is semi-benign: with
        # blast radius >= 2 it usually still hits a real victim.)
        wrong_row = self._rng_refresh.randrange(rows - 1)
        if wrong_row >= address.row:
            wrong_row += 1
        self.counters["refreshes_corrupted"] += 1
        self._emit(
            now, "corrupt_refresh",
            named_row=address.row, actual_row=wrong_row,
            channel=address.channel, rank=address.rank, bank=address.bank,
        )
        return dataclasses.replace(address, row=wrong_row)

    def _stall_batch(self, time_ns: int, size: int) -> int:
        self._batches_seen += 1
        if self._batches_seen % self.config.stall_batch_every:
            return 0
        self.counters["batches_stalled"] += 1
        self._emit(
            time_ns, "stall_batch",
            size=size, stall_ns=self.config.stall_batch_ns,
        )
        return self.config.stall_batch_ns

    def _on_act_reconfig(
        self, address: "DdrAddress", now: int,
        domain: Optional[int], is_dma: bool,
    ) -> Optional["ActAction"]:
        self._acts_seen += 1
        if self._acts_seen % self.config.reconfig_every_acts:
            return None
        return lambda: self._reconfig_storm(now)

    def _reconfig_storm(self, now: int) -> None:
        assert self.system is not None
        self.counters["reconfig_storms"] += 1
        for counter in self.system.controller.counters.values():
            counter.set_threshold(counter.threshold)
            if self.config.reconfig_forgives:
                counter.forgive_pending()
        self._emit(
            now, "reconfig_storm", forgiving=self.config.reconfig_forgives,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, time_ns: int, fault: str, **detail: object) -> None:
        trace = self._trace
        if trace is not None and trace.enabled:
            trace.emit(_ev.FAULT_INJECTED, time_ns, fault=fault, **detail)
