"""PRAC: per-row activation counting inside the DRAM die.

The next-generation in-DRAM mitigation the defense zoo was missing
(PRAC/PRACtical, arxiv 2507.18581): every row carries an *exact*
activation counter co-located with the mat, updated on precharge.  No
sampling, no Misra-Gries churn — any row that crosses the alert
threshold is guaranteed to be seen, which closes the many-sided bypass
surface that defeats tracker-based TRR (E6).

Two implementation realities from the PRACtical design are modeled
explicitly because they are where the scheme's costs live:

* **subarray-level update batching** — counter updates are performed by
  per-subarray logic and queued until the subarray's update buffer
  fills (or a REF flushes everything), so threshold crossings become
  visible a bounded number of ACTs late;
* **bank-level recovery isolation** — recovery refreshes (the RFM-style
  "back-off" work) are serviced during REF and block only the banks
  that actually have pending recoveries; the other banks proceed.
  The per-burst counters record exactly that split.

``PracDefense`` rides the :class:`~repro.dram.device` mitigation hook
(``on_activate`` inline on every ACT — scalar and chain legs alike —
and ``targets_to_refresh`` consumed at each REF burst on
flushed state), so the hammer chain serves it exactly with zero engine
changes.

Its ``cost()`` is the §3 density-scaling liability made concrete: one
counter *per row*, so tracker storage grows linearly with chip
capacity — the opposite end of the trade-off from vendor TRR's fixed
handful of entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.defenses.base import Defense, DefenseCost
from repro.defenses.refresh_centric import _safe_threshold
from repro.dram.geometry import DdrAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System

BankKey = Tuple[int, int, int]
SubarrayKey = Tuple[int, int, int, int]

#: bits per in-array activation counter (PRAC-style, saturating)
_PRAC_COUNTER_BITS = 16
#: bits per pending-update queue entry (row tag within the subarray +
#: coalesced delta)
_QUEUE_ENTRY_BITS = 24


class PracDefense(Defense):
    """Exact per-row activation counters with deferred recovery.

    ``threshold_margin`` sizes the per-row alert threshold off the
    disturbance profile exactly like the MC-side trackers do
    (:func:`~repro.defenses.refresh_centric._safe_threshold`), leaving
    headroom for the two detection lags the design accepts: updates
    parked in a subarray queue (≤ ``batch_limit`` ACTs) and recovery
    deferred to the next REF burst (≤ tREFI of further ACTs).

    A row's counter resets only when its recovery fires — counts
    persist across refresh windows, which can only over-trigger
    (conservative), never under-trigger.
    """

    name = "prac"
    table1_row = ("none — self-contained in-DRAM", "PRAC per-row counters")
    mitigation_counters = ("rows_recovered",)
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="dram",
        stops_cross_domain=True,
        stops_intra_domain=True,
        covers_dma=True,  # in DRAM, it sees every ACT
        scales_with_density=False,  # storage ∝ rows: the §3 liability
    )
    requires: Tuple[Primitive, ...] = ()  # self-contained in the module

    def __init__(
        self,
        threshold_margin: float = 0.45,
        batch_limit: int = 8,
        recovery_radius: Optional[int] = None,
    ) -> None:
        super().__init__()
        if not 0.0 < threshold_margin < 1.0:
            raise ValueError("threshold_margin must be in (0, 1)")
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        if recovery_radius is not None and recovery_radius < 1:
            raise ValueError("recovery_radius must be >= 1")
        self.threshold_margin = threshold_margin
        self.batch_limit = batch_limit
        self.recovery_radius = recovery_radius
        self._threshold = 0
        # per bank: row -> exact activation count (the in-array counters)
        self._counts: Dict[BankKey, Dict[int, int]] = {}
        # per (bank, subarray): row -> (pending delta, exemplar address);
        # the subarray update queue that batches counter maintenance
        self._pending: Dict[SubarrayKey, Dict[int, List]] = {}
        # per bank: rows that crossed the threshold, awaiting the next
        # REF burst (exemplar addresses, insertion-ordered)
        self._recovery_queues: Dict[BankKey, Dict[int, DdrAddress]] = {}

    # ------------------------------------------------------------------
    # Defense lifecycle
    # ------------------------------------------------------------------

    def _wire(self, system: "System") -> None:
        if system.device.mitigation is not None:
            raise RuntimeError("the DRAM module already has a mitigation")
        self._threshold = _safe_threshold(system, self.threshold_margin)
        if self.recovery_radius is None:
            self.recovery_radius = system.profile.blast_radius
        system.device.mitigation = self

    def cost(self) -> DefenseCost:
        """One counter per row plus the per-subarray update queues —
        storage that grows *linearly with capacity*, which is exactly
        the §3 scaling argument PRAC concretizes."""
        if self.system is None:
            return DefenseCost()
        geometry = self.system.geometry
        counter_bits = geometry.rows_total * _PRAC_COUNTER_BITS
        subarrays_total = geometry.banks_total * geometry.subarrays_per_bank
        queue_bits = subarrays_total * self.batch_limit * _QUEUE_ENTRY_BITS
        return DefenseCost(sram_bits=counter_bits + queue_bits)

    # ------------------------------------------------------------------
    # InDramMitigation protocol (driven by the DRAM device)
    # ------------------------------------------------------------------

    def on_activate(self, address: DdrAddress, time_ns: int) -> None:
        geometry = self.system.geometry if self.system is not None else None
        assert geometry is not None, "not attached"
        subarray = geometry.subarray_of_row(address.row)
        bucket = self._pending.setdefault(
            address.bank_key() + (subarray,), {}
        )
        entry = bucket.get(address.row)
        if entry is not None:
            entry[0] += 1
        else:
            bucket[address.row] = [1, address]
        if sum(item[0] for item in bucket.values()) >= self.batch_limit:
            self._flush_bucket(address.bank_key(), bucket)

    def targets_to_refresh(self, time_ns: int) -> List[Tuple[DdrAddress, int]]:
        # REF flushes every subarray's update queue first: crossings
        # parked in a queue must not outlive the burst.
        for key, bucket in self._pending.items():
            if bucket:
                self._flush_bucket(key[:3], bucket)
        targets: List[Tuple[DdrAddress, int]] = []
        blocked = 0
        for bank_key, queue in self._recovery_queues.items():
            if not queue:
                continue
            blocked += 1
            for row, exemplar in queue.items():
                targets.append((exemplar, self.recovery_radius))
                # recovery resets the in-array counter
                self._counts.get(bank_key, {}).pop(row, None)
            self.bump("rows_recovered", len(queue))
            queue.clear()
        if targets:
            # bank-level recovery isolation: only banks with pending
            # recoveries stall for the extra refreshes; the rest of the
            # module proceeds untouched.
            banks_total = self.system.geometry.banks_total
            self.bump("recoveries")
            self.bump("recovery_banks_blocked", blocked)
            self.bump("banks_spared", banks_total - blocked)
        return targets

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _flush_bucket(self, bank_key: BankKey, bucket: Dict[int, List]) -> None:
        """Merge one subarray's queued deltas into the in-array
        counters; rows crossing the alert threshold join their bank's
        recovery queue."""
        table = self._counts.setdefault(bank_key, {})
        queue = self._recovery_queues.setdefault(bank_key, {})
        for row, (delta, exemplar) in bucket.items():
            count = table.get(row, 0) + delta
            table[row] = count
            if count >= self._threshold and row not in queue:
                queue[row] = exemplar
                self.bump("alerts")
        bucket.clear()
        self.bump("update_batches_flushed")
