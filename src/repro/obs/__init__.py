"""Observability: structured event tracing for the simulator.

The paper's §4.2 primitive is itself an observability argument — a
defense can only act on what the MC *reports*.  This package gives the
simulator the same courtesy: hot paths emit typed events onto a
:class:`~repro.obs.trace.TraceBus` (disabled by default and free when
disabled).  A system's counters are read live by
:meth:`~repro.sim.system.System.metrics_snapshot`.

``repro.obs.runtime.observe`` is the one-stop entry point: systems built
inside the context pick up the configured sink automatically, which is
how ``python -m repro trace`` records without threading arguments
through every call site.
"""

from repro.obs.events import (
    ACT,
    ACT_INTERRUPT,
    BIT_FLIP,
    EVENT_KINDS,
    FAULT_INJECTED,
    HANDLER_ERROR,
    INVARIANT_VIOLATION,
    NEIGHBOR_REFRESH,
    ROW_CONFLICT,
    SCHED_BATCH,
    TARGETED_REFRESH,
    THROTTLE_STALL,
    TraceEvent,
    UNCORE_MOVE,
)
from repro.obs.inspect import TraceSummary, render_summary, summarize_events
from repro.obs.trace import (
    CountingSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    SamplingSink,
    TraceBus,
    iter_jsonl,
    read_jsonl,
)
from repro.obs.runtime import observe

__all__ = [
    "ACT",
    "ACT_INTERRUPT",
    "BIT_FLIP",
    "CountingSink",
    "EVENT_KINDS",
    "FAULT_INJECTED",
    "HANDLER_ERROR",
    "INVARIANT_VIOLATION",
    "JsonlSink",
    "NEIGHBOR_REFRESH",
    "NullSink",
    "ROW_CONFLICT",
    "RingBufferSink",
    "SCHED_BATCH",
    "SamplingSink",
    "TARGETED_REFRESH",
    "THROTTLE_STALL",
    "TraceBus",
    "TraceEvent",
    "TraceSummary",
    "UNCORE_MOVE",
    "iter_jsonl",
    "observe",
    "read_jsonl",
    "render_summary",
    "summarize_events",
]
