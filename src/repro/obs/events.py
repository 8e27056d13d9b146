"""Typed trace events emitted by the simulator's hot paths.

An event is a ``kind`` (one of the constants below), a simulated
timestamp, and a flat payload of JSON-native values — lists instead of
tuples, plain ints/floats/strings/None — so a JSONL file round-trips
losslessly back into equal :class:`TraceEvent` objects.

The vocabulary mirrors what the paper argues hardware should report
(§4.2: *which* row, *when*) plus the harness-side ground truth the
oracle alone can see (bit flips):

========================  ====================================================
kind                      emitted when
========================  ====================================================
``act``                   the MC activates a row for a RD/WR
``row_conflict``          the activation closed another tenant-visible row
``act_interrupt``         an ACT_COUNT overflow interrupt fires (§4.2)
``targeted_refresh``      the proposed ``refresh`` instruction executes (§4.3)
``neighbor_refresh``      a REF_NEIGHBORS command executes (§4.3)
``bit_flip``              the disturbance oracle records a flip
``throttle_stall``        an ACT gate (BlockHammer-style) delays an ACT
``uncore_move``           the proposed uncore move copies a line (§4.2)
``sched_batch``           the batch scheduler issues one outstanding window
``fault_injected``        the fault plane perturbed a hardware behaviour
``invariant_violation``   an invariant checker caught an inconsistency
``handler_error``         a host-OS interrupt handler raised an exception
========================  ====================================================

Every event's ``time_ns`` is simulated time.  A campaign's own
lifecycle (attempts, failures, cached seeds, wall-clock times) is not
traced: it lives in the campaign journal (:mod:`repro.runtime.journal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

ACT = "act"
ROW_CONFLICT = "row_conflict"
ACT_INTERRUPT = "act_interrupt"
TARGETED_REFRESH = "targeted_refresh"
NEIGHBOR_REFRESH = "neighbor_refresh"
BIT_FLIP = "bit_flip"
THROTTLE_STALL = "throttle_stall"
UNCORE_MOVE = "uncore_move"
SCHED_BATCH = "sched_batch"
FAULT_INJECTED = "fault_injected"
INVARIANT_VIOLATION = "invariant_violation"
HANDLER_ERROR = "handler_error"

#: every kind the simulator emits, in documentation order
EVENT_KINDS = (
    ACT,
    ROW_CONFLICT,
    ACT_INTERRUPT,
    TARGETED_REFRESH,
    NEIGHBOR_REFRESH,
    BIT_FLIP,
    THROTTLE_STALL,
    UNCORE_MOVE,
    SCHED_BATCH,
    FAULT_INJECTED,
    INVARIANT_VIOLATION,
    HANDLER_ERROR,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the trace bus."""

    kind: str
    time_ns: int
    data: Dict[str, object] = field(default_factory=dict)

    def as_json_dict(self) -> Dict[str, object]:
        """Flat dict form written to JSONL (``t`` keeps lines short)."""
        payload: Dict[str, object] = {"kind": self.kind, "t": self.time_ns}
        payload.update(self.data)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`as_json_dict`."""
        data = dict(payload)
        kind = data.pop("kind")
        time_ns = data.pop("t")
        return cls(kind=str(kind), time_ns=int(time_ns), data=data)
