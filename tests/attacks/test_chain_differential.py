"""The dependent-chain hammer loop against the per-access oracle.

``Attacker.run`` and ``Attacker.run_rounds`` hand the hammer loop to the
controller's bulk engine once it reaches its fixed point.  The oracle
below is the per-access loop: one ``Attacker.step`` (a
``_hammer_round``) per round, flips drained after each.  Every case
builds the same scenario twice, drives one copy each way, and compares
everything the run leaves behind: the result (iterations, finish time,
flips in order), ``collect_metrics`` field for field, the controller's
statistics, the CPU counters, TLB entries and every non-empty LLC set
in LRU order, the locked lines, each ACT counter's pending state, the
defense and fault-plane counters, the disturbance tracker's pressure
and trip state, and the data plane's corrupted lines.

Each case also asserts which path the fast run took, so a case that
silently stays per-access cannot pass as proof of the chain.
"""

from dataclasses import asdict

import pytest

from repro.analysis.experiments import _hosting_config
from repro.analysis.scenarios import build_scenario
from repro.attacks import Attacker, AttackPlanner
from repro.attacks.attacker import CHAIN_ROUNDS, AttackResult
from repro.core.primitives import PrimitiveSet
from repro.defenses import (
    ALL_DEFENSES,
    AggressorRemapDefense,
    CacheLineLockingDefense,
    TargetedRefreshDefense,
)
from repro.defenses.registry import build_overrides
from repro.dram.presets import by_name, scale_for
from repro.faults.config import FaultConfig
from repro.obs.trace import CountingSink
from repro.sim import legacy_platform
from repro.sim.metrics import collect_metrics

SWEEP_SCALE = 64


def oracle_run(attacker, duration_ns, start_ns=0):
    """``Attacker.run`` as a per-access loop."""
    system = attacker.system
    system.drain_flips()
    flips, iterations, now = [], 0, start_ns
    deadline = start_ns + duration_ns
    while now < deadline and attacker.plan.viable:
        now = attacker.step(now)
        iterations += 1
        if system.has_pending_flips():
            flips.extend(system.drain_flips())
    return AttackResult(
        attacker.plan, iterations, start_ns, max(now, start_ns), flips
    )


def oracle_rounds(attacker, rounds, start_ns=0):
    """``Attacker.run_rounds`` as a per-access loop."""
    system = attacker.system
    system.drain_flips()
    flips, done, now = [], 0, start_ns
    while done < rounds and attacker.plan.viable:
        now = attacker.step(now)
        done += 1
        if system.has_pending_flips():
            flips.extend(system.drain_flips())
    return AttackResult(
        attacker.plan, done, start_ns, max(now, start_ns), flips
    )


def snapshot(system, result, defenses):
    """Everything a run leaves behind that the chain must reproduce."""
    core, cache, tlb = system.core, system.cache, system.mmu.tlb
    tracker = system.device.tracker
    return {
        "iterations": result.hammer_iterations,
        "finished_ns": result.finished_ns,
        "flips": [
            (flip.victim, flip.aggressor, flip.time_ns, flip.flipped_bits,
             flip.aggressor_domain, flip.victim_domains)
            for flip in result.flips
        ],
        "metrics": asdict(collect_metrics(
            system, "run", elapsed_ns=result.finished_ns, defenses=defenses
        )),
        "mc": system.controller.stats.snapshot(),
        "cpu": (
            core.flushes, core.blocked_flushes, core.loads, cache.hits,
            cache.misses, cache.evictions, cache.writebacks,
            cache.locked_hits, tlb.hits, tlb.misses, tlb.evictions,
        ),
        "tlb": list(tlb._entries.items()),
        "llc": [
            (index, list(lines.items()))
            for index, lines in enumerate(cache._sets) if lines
        ],
        "locked": sorted(cache.locked_lines()),
        "counters": [
            (counter.pending, counter.total_acts, counter.interrupts_raised,
             counter.interrupts_delivered, counter.interrupts_lost)
            for counter in system.controller.counters.values()
        ],
        "defenses": [dict(defense.counters) for defense in defenses],
        "pressure": dict(tracker.iter_pressure()),
        "tripped": {key for key, on in tracker._tripped.items() if on},
        "corrupted": list(system.data.corrupted_lines),
        "faults": dict(system.faults.counters) if system.faults else None,
    }


class ChainSpy:
    """Records each ``submit_chain`` call's round count and result."""

    def __init__(self, controller):
        self.calls = []
        original = controller.submit_chain

        def spy(line_col, domain, rounds, *args, **kwargs):
            serviced, clock = original(line_col, domain, rounds, *args,
                                       **kwargs)
            self.calls.append((len(line_col), rounds, serviced))
            return serviced, clock

        controller.submit_chain = spy

    @property
    def cut_short(self):
        """Calls that serviced fewer reads than their rounds asked."""
        return [call for call in self.calls if call[2] < call[0] * call[1]]


def hammer(config, make_defenses, drive, oracle, pattern="double-sided",
           sides=8, spacing=2, interleaved=True, use_dma=False,
           traced=False):
    """Build a scenario, plan, and drive it either way."""
    defenses = make_defenses()
    scenario = build_scenario(
        config, defenses=defenses, interleaved_allocation=interleaved
    )
    system = scenario.system
    if traced:
        system.obs.trace.set_sink(CountingSink())
    plan = AttackPlanner(system, scenario.attacker).plan(
        scenario.victim, pattern, sides=sides, spacing=spacing
    )
    attacker = Attacker(system, scenario.attacker, plan, use_dma=use_dma)
    spy = ChainSpy(system.controller)
    kind, amount = drive(system)
    if kind == "run":
        result = (oracle_run if oracle else Attacker.run)(attacker, amount)
    else:
        result = (oracle_rounds if oracle else Attacker.run_rounds)(
            attacker, amount
        )
    return snapshot(system, result, defenses), spy, plan


def one_window(system):
    return "run", system.timings.tREFW


def compare(config, make_defenses, drive=one_window, **kwargs):
    """Run both paths; assert they agree; return the fast run's spy."""
    fast, spy, plan = hammer(config, make_defenses, drive, False, **kwargs)
    slow, oracle_spy, _ = hammer(config, make_defenses, drive, True,
                                 **kwargs)
    assert not oracle_spy.calls
    for key in slow:
        assert fast[key] == slow[key], key
    return spy, plan, fast


def sweep_config(cls):
    if cls is None:
        return legacy_platform(scale=SWEEP_SCALE), True
    return _hosting_config(cls, SWEEP_SCALE), not build_overrides(cls)


@pytest.mark.parametrize("pattern", ["double-sided", "many-sided"])
@pytest.mark.parametrize(
    "cls", (None,) + ALL_DEFENSES,
    ids=["undefended"] + [cls.name for cls in ALL_DEFENSES],
)
def test_every_defense_matches_the_oracle(cls, pattern):
    config, interleaved = sweep_config(cls)
    spy, plan, fast = compare(
        config, lambda: [] if cls is None else [cls()],
        pattern=pattern, interleaved=interleaved,
    )
    if not plan.viable:
        assert fast["iterations"] == 0
    elif cls is None or cls.supports_bulk_acts:
        assert spy.calls, "the chain never engaged"
    else:
        assert not spy.calls, "a scalar-only observer rode the chain"


def test_a1_park_without_rotation():
    """A1's (park, no rotate) row: aggressor-remap moves the page under
    the chain at every overflow, and a refresh burst due just before
    an ACT turns a predicted row hit into one."""
    config = legacy_platform(scale=64).with_primitives(
        PrimitiveSet.proposed()
    )
    spy, _, fast = compare(config, lambda: [AggressorRemapDefense(
        park_vacated=True, rotate_destinations=False,
    )])
    assert spy.cut_short
    assert fast["defenses"][0]["pages_moved"] == 60
    assert fast["metrics"]["cross_domain_flips"] == 1


def test_line_locking_locks_lines_the_chain_replays():
    """Each interrupt pins a line the chain was hammering; the next
    rounds hit the LLC and leave the chain for the per-access loop."""
    config = _hosting_config(CacheLineLockingDefense, 8)
    spy, _, fast = compare(
        config, lambda: [CacheLineLockingDefense()],
        drive=lambda system: ("rounds", 3000),
    )
    assert spy.cut_short
    assert fast["locked"]


@pytest.mark.parametrize("spacing", [2, 4])
def test_e5_lpddr4_targeted_refresh(spacing):
    """E5's dense node: blast radius 2, a targeted-refresh interrupt
    every ~19 ACTs, so chains are cut mid-round again and again."""
    preset = by_name("lpddr4")
    config = legacy_platform(
        scale=scale_for(preset, cap=64), generation="lpddr4"
    ).with_primitives(PrimitiveSet.proposed())
    spy, _, fast = compare(
        config, lambda: [TargetedRefreshDefense()],
        pattern="many-sided", sides=8, spacing=spacing,
    )
    assert len(spy.cut_short) > 100
    assert any(call[2] % call[0] for call in spy.cut_short)
    assert fast["defenses"][0]["victim_refreshes"] > 0


def test_half_double_splits_inside_a_weighted_line():
    """Half-Double hammers each far aggressor 8 times per round, so a
    chain cut by an interrupt often stops between two accesses to the
    same line; the round's remaining accesses must resume exactly."""
    config = legacy_platform(
        scale=scale_for(by_name("lpddr4"), cap=64), generation="lpddr4"
    ).with_primitives(PrimitiveSet.proposed())
    spy, plan, _ = compare(
        config, lambda: [TargetedRefreshDefense()], pattern="half-double",
    )
    assert plan.weights == (8, 8, 1, 1)
    assert {call[2] % call[0] for call in spy.cut_short} & set(range(1, 8))


def test_run_rounds_ending_mid_chunk():
    rounds = 2 * CHAIN_ROUNDS + CHAIN_ROUNDS // 2 + 5
    spy, _, fast = compare(
        legacy_platform(scale=8), lambda: [],
        drive=lambda system: ("rounds", rounds),
    )
    assert fast["iterations"] == rounds
    assert spy.calls[-1][1] < CHAIN_ROUNDS


def test_run_rounds_with_handlers():
    spy, _, _ = compare(
        legacy_platform(scale=8).with_primitives(PrimitiveSet.proposed()),
        lambda: [TargetedRefreshDefense()],
        drive=lambda system: ("rounds", 3000),
    )
    assert spy.cut_short


def test_deadline_inside_a_chunk():
    spy, _, _ = compare(
        legacy_platform(scale=8), lambda: [],
        drive=lambda system: ("run", system.timings.tREFW // 7),
    )
    last_size, last_rounds, last_serviced = spy.calls[-1]
    assert 0 < last_serviced < last_size * last_rounds
    assert last_serviced % last_size == 0


def test_dma_plan_stays_per_access():
    spy, _, fast = compare(legacy_platform(scale=64), lambda: [],
                           use_dma=True)
    assert not spy.calls
    assert fast["iterations"] > 0


def test_traced_run_stays_per_access():
    spy, _, fast = compare(
        legacy_platform(scale=64).with_primitives(PrimitiveSet.proposed()),
        lambda: [TargetedRefreshDefense()], traced=True,
    )
    assert not spy.calls
    assert fast["iterations"] > 0


def test_dropped_and_delayed_interrupts():
    faults = FaultConfig(
        seed=3, drop_interrupt_rate=0.3, delay_interrupt_rate=0.4,
        delay_interrupt_ns=5_000,
    )
    config = legacy_platform(scale=64, faults=faults).with_primitives(
        PrimitiveSet.proposed()
    )
    spy, _, fast = compare(config, lambda: [TargetedRefreshDefense()],
                           pattern="many-sided")
    assert spy.cut_short
    assert fast["faults"]["interrupts_dropped"] > 0
    assert fast["faults"]["interrupts_delayed"] > 0
