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

Attaching a defense never turns ``supports_chain`` off.
"""

import dataclasses
import random

import pytest

from repro.cpu.core import LLC_HIT_LATENCY_NS
from repro.defenses import ALL_DEFENSES
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


def _build(platform, defense_cls):
    system = build_system(_config(platform, defense_cls))
    assert system.controller.supports_chain
    defense = defense_cls()
    defense.attach(system)
    handle = system.create_domain("tenant", pages=64)
    stream = make_generator("zipfian", handle.total_lines, random.Random(11))
    lines = [
        handle.physical_line(next(stream)[0]) for _ in range(ACCESSES)
    ]
    return system, handle, lines, defense


def _run(platform, defense_cls, bulk):
    system, handle, lines, defense = _build(platform, defense_cls)
    controller = system.controller
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
    "defense_cls, platform",
    [
        pytest.param(cls, platform, id=f"{cls.name}-{platform}")
        for cls in ALL_DEFENSES
        for platform in sorted(PLATFORMS)
        if _hosts(platform, cls)
    ],
)
def test_bulk_metrics_equal_scalar_oracle(defense_cls, platform):
    system, _, _, _ = _build(platform, defense_cls)
    assert system.controller.supports_chain
    bulk = _run(platform, defense_cls, True)
    reference = _run(platform, defense_cls, False)
    assert bulk == reference
    # handlers may add requests of their own (aggressor-remap's moves)
    assert bulk["metrics"]["requests"] >= ACCESSES
