"""Request scheduling: FCFS vs FR-FCFS over an outstanding window.

Real memory controllers do not service requests in arrival order: the
classic FR-FCFS policy issues *row hits first* (a pending request whose
row is already open goes ahead of an older request that would need a
PRE+ACT), falling back to oldest-first.  This is where much of the
open-page policy's benefit comes from on mixed traffic — several tenants
interleaving streams would otherwise destroy each other's row locality.

``BatchScheduler`` applies the policy over one memory-level-parallelism
window: the set of requests a core (or several) has outstanding at the
same time.  That window is exactly the reordering scope a real MC queue
has, so scheduling within it captures the first-order effect without a
cycle-level queue model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

from repro.mc.controller import CompletedRequest, MemoryController, MemoryRequest
from repro.obs.events import SCHED_BATCH

POLICIES = ("fcfs", "fr-fcfs")


class BatchScheduler:
    """Issue batches of simultaneously outstanding requests."""

    def __init__(self, controller: MemoryController, policy: str = "fr-fcfs"):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {POLICIES}"
            )
        self.controller = controller
        self.policy = policy
        self.reordered = 0

    def issue(self, requests: Sequence[MemoryRequest]) -> List[CompletedRequest]:
        """Service every request of one outstanding window; returns the
        completions in *issue* order.

        Under FCFS the order is arrival order.  Under FR-FCFS, at each
        step the oldest pending request that would hit an open row goes
        first; when none would, the oldest request is issued (which
        opens a row that may turn later requests into hits).
        """
        controller = self.controller
        trace = controller.trace
        if trace.enabled and requests:
            trace.emit(
                SCHED_BATCH, min(r.time_ns for r in requests),
                size=len(requests), policy=self.policy,
            )
        if requests and controller.batch_fault is not None:
            # Fault seam: a stalled batch issues late.  Requests are
            # frozen, so the shift produces replacements; completion
            # records carry the shifted times like any queueing delay.
            stall_ns = controller.batch_fault(
                min(r.time_ns for r in requests), len(requests)
            )
            if stall_ns:
                requests = [
                    replace(r, time_ns=r.time_ns + stall_ns)
                    for r in requests
                ]
        if self.policy == "fcfs":
            return controller.submit_batch(list(requests))
        banks = controller.device.banks
        pending = list(requests)
        # Translate the whole window up front (one bulk call instead of
        # O(window²) scalar lookups across the scan rounds).  Safe: every
        # scan is left-to-right over ``pending``, so a line's *first*
        # translation happens in arrival order either way — lazy
        # first-touch frame placement lands identically.  Bank open-row
        # state is still read fresh in every round.
        addresses = controller.mapper.lines_to_ddr_bulk(
            [request.physical_line for request in pending]
        )
        # Pre-resolve each request's bank object and row so a scan round
        # is a plain list walk (no per-element tuple construction or dict
        # lookups); the lists are popped in lockstep with ``pending``.
        bank_list = [
            banks[(address.channel, address.rank, address.bank)]
            for address in addresses
        ]
        row_list = [address.row for address in addresses]
        submit_translated = controller._submit_translated
        completed: List[CompletedRequest] = []
        while pending:
            chosen_index = 0
            for index, bank in enumerate(bank_list):
                if bank.open_row == row_list[index]:  # would be a row hit
                    chosen_index = index
                    break
            if chosen_index != 0:
                self.reordered += 1
            address = addresses.pop(chosen_index)
            bank_list.pop(chosen_index)
            row_list.pop(chosen_index)
            request = pending.pop(chosen_index)
            completed.append(submit_translated(request, address))
        return completed
