"""Registry-wide bulk == scalar differential.

Every defense in ``ALL_DEFENSES``, on every platform preset that can
host it, must leave ``RunMetrics`` bit-identical whether a dependent
stream of reads is serviced by the controller's bulk engine
(:meth:`~repro.mc.controller.MemoryController.submit_chain`, whose
disturbance accrual runs in column space through
``DisturbanceTracker.on_activate_bulk`` and whose ACT observers run
inline, their actions at settled points) or one
:meth:`~repro.mc.controller.MemoryController.submit` at a time.
``submit`` stays the oracle: the bulk leg is the one under test.

The stream is a zipfian workload's lines, not a hammer loop, so one
engine call sees many distinct lines, banks and channels, and row
hits, misses and conflicts mixed — shapes the attack loops of
``tests/attacks/test_chain_differential.py`` do not produce.

At their defaults, Graphene, TWiCe and ANVIL never reach their per-row
thresholds on this stream, so their observers never act.  Each also
runs with a low ``threshold_margin`` (the ``-low-threshold`` cases),
where its actions land in the middle of the chain; both legs record
the time of every action an observer returns, and those cases must
record some.

Attaching a defense never turns ``supports_chain`` off.
"""

import dataclasses
import random

import pytest

from repro.cpu.core import LLC_HIT_LATENCY_NS
from repro.defenses import (
    ALL_DEFENSES,
    AnvilDefense,
    GrapheneDefense,
    TwiceDefense,
)
from repro.defenses.registry import build_overrides
from repro.mc.controller import MemoryRequest
from repro.sim import (
    build_system,
    ideal_platform,
    legacy_platform,
    proposed_platform,
)
from repro.sim.metrics import collect_metrics
from repro.workloads import make_generator

PLATFORMS = {
    "legacy": legacy_platform,
    "proposed": proposed_platform,
    "ideal": ideal_platform,
}

ACCESSES = 600
#: about 40 actions per case on this stream at scale 8
LOW_THRESHOLD = {"threshold_margin": 0.02}
#: hammer_access's timing: a clean clflush costs 1 ns, and the load
#: retires LLC_HIT_LATENCY_NS after its DRAM read
FLUSH_NS = 1


def _config(platform, defense_cls):
    # Allocator-policy defenses refuse to attach unless the system was
    # built with their matching placement policy; the registry knows
    # which overrides each defense demands (§4.1).
    return PLATFORMS[platform](scale=8, **build_overrides(defense_cls))


def _hosts(platform, defense_cls):
    """Whether the platform has every primitive the defense requires."""
    available = _config(platform, defense_cls).primitives.available
    return frozenset(defense_cls.requires) <= available


def _record_actions(controller):
    """Wrap every subscribed ACT observer; the returned list gets the
    ACT time of each action one of them returns."""
    times = []

    def recording(observer):
        def observe(address, time_ns, domain, is_dma):
            action = observer(address, time_ns, domain, is_dma)
            if action is not None:
                times.append(time_ns)
            return action
        return observe

    observers = controller._act_observers
    observers[:] = [recording(observer) for observer in observers]
    return times


def _build(platform, defense_cls, defense_kwargs):
    system = build_system(_config(platform, defense_cls))
    assert system.controller.supports_chain
    defense = defense_cls(**defense_kwargs)
    defense.attach(system)
    handle = system.create_domain("tenant", pages=64)
    stream = make_generator("zipfian", handle.total_lines, random.Random(11))
    lines = [
        handle.physical_line(next(stream)[0]) for _ in range(ACCESSES)
    ]
    return system, handle, lines, defense


def _run(platform, defense_cls, defense_kwargs, bulk):
    system, handle, lines, defense = _build(
        platform, defense_cls, defense_kwargs
    )
    controller = system.controller
    actions = _record_actions(controller)
    if bulk:
        serviced, clock = controller.submit_chain(
            lines, handle.asid, 0, FLUSH_NS, LLC_HIT_LATENCY_NS, None,
            len(lines), lambda index, settled: None, lambda: True,
        )
        assert serviced == ACCESSES
    else:
        clock = 0
        for line in lines:
            completed = controller.submit(MemoryRequest(
                time_ns=clock + FLUSH_NS,
                physical_line=line,
                is_write=False,
                domain=handle.asid,
            ))
            clock = completed.ready_at_ns + LLC_HIT_LATENCY_NS
    tracker = system.device.tracker
    return {
        "lines": lines,
        "clock": clock,
        "actions": actions,
        "metrics": dataclasses.asdict(collect_metrics(
            system, "diff", elapsed_ns=clock, defenses=[defense]
        )),
        "mc": controller.stats.snapshot(),
        "counters": [
            (counter.pending, counter.total_acts, counter.interrupts_raised,
             counter.interrupts_delivered, counter.interrupts_lost)
            for counter in controller.counters.values()
        ],
        "pressure": dict(tracker.iter_pressure()),
        "flips": [
            (flip.victim, flip.aggressor, flip.time_ns, flip.flipped_bits,
             flip.aggressor_domain, flip.victim_domains)
            for flip in tracker.flips
        ],
    }


@pytest.mark.parametrize(
    "defense_cls, platform, defense_kwargs",
    [
        pytest.param(cls, platform, {}, id=f"{cls.name}-{platform}")
        for cls in ALL_DEFENSES
        for platform in sorted(PLATFORMS)
        if _hosts(platform, cls)
    ] + [
        pytest.param(
            cls, platform, LOW_THRESHOLD,
            id=f"{cls.name}-{platform}-low-threshold",
        )
        for cls in (GrapheneDefense, TwiceDefense, AnvilDefense)
        for platform in sorted(PLATFORMS)
        if _hosts(platform, cls)
    ],
)
def test_bulk_metrics_equal_scalar_oracle(defense_cls, platform, defense_kwargs):
    system, _, _, _ = _build(platform, defense_cls, defense_kwargs)
    assert system.controller.supports_chain
    bulk = _run(platform, defense_cls, defense_kwargs, True)
    reference = _run(platform, defense_cls, defense_kwargs, False)
    assert bulk == reference
    if defense_kwargs:
        assert len(bulk["actions"]) > 0
    # handlers may add requests of their own (aggressor-remap's moves)
    assert bulk["metrics"]["requests"] >= ACCESSES
