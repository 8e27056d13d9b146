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
        submit = controller.submit
        if self.policy == "fcfs":
            return [submit(request) for request in requests]
        banks = controller.device.banks
        pending = list(requests)
        # Translate the window once, in arrival order: lazy first-touch
        # frame placement follows arrival order whatever order the
        # requests issue in.  Each scan round reads every bank's open
        # row afresh.
        line_to_ddr = controller.mapper.line_to_ddr
        bank_list = []
        row_list = []
        for request in pending:
            address = line_to_ddr(request.physical_line)
            bank_list.append(
                banks[(address.channel, address.rank, address.bank)]
            )
            row_list.append(address.row)
        completed: List[CompletedRequest] = []
        while pending:
            chosen_index = 0
            for index, bank in enumerate(bank_list):
                if bank.open_row == row_list[index]:  # would be a row hit
                    chosen_index = index
                    break
            if chosen_index != 0:
                self.reordered += 1
            bank_list.pop(chosen_index)
            row_list.pop(chosen_index)
            completed.append(submit(pending.pop(chosen_index)))
        return completed
