"""Ambient observation: trace every system built inside a block.

Every :class:`~repro.sim.system.System` owns a trace bus
(``system.trace``, the one its controller emits on), disabled until a
sink is installed.  :func:`observe` is the ambient switch: systems
*built inside* the context pick up a freshly made sink automatically.
That indirection is what lets ``python -m repro trace`` record runs
whose system construction is buried inside a scenario spec, without
plumbing a sink argument through every builder.  The state is
per-process: a worker process that enters the context opens its own
trace file, so lines never interleave.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TYPE_CHECKING
from contextlib import contextmanager

from repro.obs.trace import TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


class ObservationSession:
    """What one :func:`observe` context created: the sinks (so callers
    can read counts or ring buffers afterwards) and the systems that
    attached."""

    def __init__(self) -> None:
        self.sinks: List[TraceSink] = []
        self.systems: List["System"] = []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class _ObservationPlan:
    __slots__ = ("sink_factory", "session")

    def __init__(
        self,
        sink_factory: Optional[Callable[[], TraceSink]],
        session: ObservationSession,
    ) -> None:
        self.sink_factory = sink_factory
        self.session = session


#: innermost-wins stack of active observation plans (per process)
_ACTIVE: List[_ObservationPlan] = []


@contextmanager
def observe(
    sink_factory: Optional[Callable[[], TraceSink]] = None,
) -> Iterator[ObservationSession]:
    """Ambient observation: every system built inside the block gets a
    sink from ``sink_factory`` (one per system) and is recorded on the
    session.  Sinks are closed when the block exits."""
    session = ObservationSession()
    plan = _ObservationPlan(sink_factory, session)
    _ACTIVE.append(plan)
    try:
        yield session
    finally:
        _ACTIVE.remove(plan)
        session.close()


def attach_ambient(system: "System") -> None:
    """Hook called from ``System.__init__``: apply the active observation
    plans, if any.

    Nested ``observe`` blocks compose rather than shadow: the *innermost*
    plan that provides a sink factory wins, but **every** active plan's
    session records the system.  An inner sink-less ``observe()`` (the
    campaign workers use one to snapshot each system's counters)
    therefore never steals systems from an outer plan that configured
    tracing."""
    if not _ACTIVE:
        return
    for plan in reversed(_ACTIVE):
        if plan.sink_factory is not None:
            sink = plan.sink_factory()
            system.trace.set_sink(sink)
            plan.session.sinks.append(sink)
            break
    for plan in _ACTIVE:
        plan.session.systems.append(system)
