"""The dependent-chain hammer loops against their per-access oracles.

``Attacker.run``, ``Attacker.run_rounds`` and ``EvasiveAttacker.run``
hand resident stretches of their hammer loops to the controller's bulk
engine, where host-OS interrupt handlers and the actions of ACT
observers run in place.  The oracles
below are the per-access loops: for ``Attacker``, one ``Attacker.step``
(a ``_hammer_round``) per round, flips drained after each; for the
evader, its schedule one ``hammer_access`` at a time.  Every case
builds the same scenario twice, drives one copy each way, and compares
everything the run leaves behind: the result (iterations or ACT counts,
finish time, flips in order), ``collect_metrics`` field for field, the
controller's statistics, the CPU counters, TLB entries and every
non-empty LLC set in LRU order, the locked lines, each ACT counter's
pending state, the defense and fault-plane counters, the disturbance
tracker's flips, pressure and trip state, and the data plane's
corrupted lines.

Each case also asserts which path the fast run took, so a case that
silently stays per-access cannot pass as proof of the chain.
"""

from dataclasses import asdict, dataclass, field, replace
from typing import List

import pytest

from repro.analysis.experiments import _decoy_lines, _hosting_config
from repro.analysis.scenarios import build_scenario
from repro.attacks import (
    Attacker,
    AttackPlanner,
    EvasionResult,
    EvasiveAttacker,
)
from repro.attacks.attacker import CHAIN_ROUNDS, AttackResult
from repro.attacks.evasion import STRETCH
from repro.cpu.mmu import TranslationError
from repro.core.primitives import PrimitiveSet
from repro.defenses import (
    ALL_DEFENSES,
    AggressorRemapDefense,
    BreakHammerDefense,
    CacheLineLockingDefense,
    ParaDefense,
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


def oracle_evade(attacker, duration_ns, start_ns=0):
    """``EvasiveAttacker.run`` as a per-access loop."""
    system = attacker.system
    asid = attacker.handle.asid
    plan = attacker.plan
    threshold, margin = attacker.believed_threshold, attacker.margin
    now, deadline = start_ns, start_ns + duration_ns
    aggressor_acts = decoy_acts = shadow = 0
    aggressor_index = decoy_index = 0
    system.drain_flips()
    while now < deadline and plan.viable:
        if shadow < threshold - margin:
            line = plan.aggressor_lines[
                aggressor_index % len(plan.aggressor_lines)
            ]
            aggressor_index += 1
            try:
                now = system.core.hammer_access(asid, line, now).done_at_ns
                aggressor_acts += 1
                shadow += 1
            except TranslationError:
                continue
        else:
            line = attacker.decoy_lines[
                decoy_index % len(attacker.decoy_lines)
            ]
            decoy_index += 1
            now = system.core.hammer_access(asid, line, now).done_at_ns
            decoy_acts += 1
            shadow += 1
            if shadow >= threshold + margin:
                shadow -= threshold
    flips = system.drain_flips()
    return EvasionResult(
        aggressor_acts=aggressor_acts,
        decoy_acts=decoy_acts,
        cross_domain_flips=sum(1 for f in flips if f.cross_domain),
        finished_ns=now,
    )


def flip_rows(flips):
    return [
        (flip.victim, flip.aggressor, flip.time_ns, flip.flipped_bits,
         flip.aggressor_domain, flip.victim_domains)
        for flip in flips
    ]


def snapshot(system, result, defenses):
    """Everything a run leaves behind that the chain must reproduce."""
    core, cache, tlb = system.core, system.cache, system.mmu.tlb
    tracker = system.device.tracker
    if isinstance(result, AttackResult):
        outcome = {
            "iterations": result.hammer_iterations,
            "flips": flip_rows(result.flips),
        }
    else:
        outcome = {
            "acts": (result.aggressor_acts, result.decoy_acts),
            "cross_domain_flips": result.cross_domain_flips,
        }
    return {
        **outcome,
        "finished_ns": result.finished_ns,
        "tracker_flips": flip_rows(tracker.flips),
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


@dataclass
class ChainCall:
    """One ``submit_chain`` call: its reads, round length, reads
    serviced, the reads whose ACT ran handlers or an observer's action
    inside it, and for each of those how many flips of earlier rounds
    were still undrained."""

    reads: int
    round_len: int
    serviced: int
    handled: List[int] = field(default_factory=list)
    undrained: List[int] = field(default_factory=list)

    @property
    def rounds(self):
        return self.reads // self.round_len


class ChainSpy:
    """Records every ``submit_chain`` call (see :class:`ChainCall`)."""

    def __init__(self, system):
        self.calls = []
        controller = system.controller
        original = controller.submit_chain

        def spy(line_col, domain, start_ns, flush_ns, fill_ns, deadline_ns,
                round_len, before, after):
            call = ChainCall(len(line_col), round_len, 0)

            def watched(index, settled):
                call.handled.append(index)
                call.undrained.append(settled - system._flip_cursor)
                before(index, settled)

            call.serviced, clock = original(
                line_col, domain, start_ns, flush_ns, fill_ns, deadline_ns,
                round_len, watched, after,
            )
            self.calls.append(call)
            return call.serviced, clock

        controller.submit_chain = spy

    @property
    def cut_short(self):
        """Calls that serviced fewer reads than they were given."""
        return [call for call in self.calls if call.serviced < call.reads]

    @property
    def handled(self):
        """``(call, read)`` for every read whose ACT ran handlers or an
        action inside a chain."""
        return [
            (call, index) for call in self.calls for index in call.handled
        ]


def hammer(config, make_defenses, drive, oracle, pattern="double-sided",
           sides=8, spacing=2, interleaved=True, use_dma=False,
           traced=False, probe=None):
    """Build a scenario, plan, and drive it either way.  ``probe``,
    when given, prepares the scenario and returns a list it fills
    during the run; that list joins the snapshot."""
    defenses = make_defenses()
    scenario = build_scenario(
        config, defenses=defenses, interleaved_allocation=interleaved
    )
    system = scenario.system
    if traced:
        system.trace.set_sink(CountingSink())
    plan = AttackPlanner(system, scenario.attacker).plan(
        scenario.victim, pattern, sides=sides, spacing=spacing
    )
    attacker = Attacker(system, scenario.attacker, plan, use_dma=use_dma)
    spy = ChainSpy(system)
    seen = probe(scenario) if probe else None
    kind, amount = drive(system)
    if kind == "run":
        result = (oracle_run if oracle else Attacker.run)(attacker, amount)
    else:
        result = (oracle_rounds if oracle else Attacker.run_rounds)(
            attacker, amount
        )
    return {**snapshot(system, result, defenses), "probe": seen}, spy, plan


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
    else:
        assert spy.calls, "the chain never engaged"


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


def test_flips_of_earlier_rounds_drain_before_a_handler():
    """Aggressor-remap with neither parking nor rotation keeps its
    victims flipping.  A flip from round r-1 is then often still
    undrained inside the chain when the next handler fires in round r.
    The per-access loop drained it at the end of round r-1 and has not
    yet drained round r's: a handler that reads memory (the probe,
    subscribed after the defense) must see exactly that corruption."""
    config = legacy_platform(scale=64).with_primitives(
        PrimitiveSet.proposed()
    )

    def probe(scenario):
        system = scenario.system
        per_page = system.mmu.lines_per_page
        for frame in scenario.victim.frames + scenario.attacker.frames:
            for line in range(frame * per_page, (frame + 1) * per_page):
                system.data.write(line, b"\xa5" * 8)
        seen = []
        system.controller.subscribe_interrupts(
            lambda interrupt: seen.append(len(system.data.corrupted_lines))
        )
        return seen

    spy, _, fast = compare(config, lambda: [AggressorRemapDefense(
        park_vacated=False, rotate_destinations=False,
    )], probe=probe)
    assert any(n > 0 for call in spy.calls for n in call.undrained)
    assert fast["corrupted"] and fast["probe"]


@pytest.mark.parametrize("spacing", [2, 4])
def test_e5_lpddr4_targeted_refresh(spacing):
    """E5's dense node: blast radius 2, a targeted-refresh interrupt
    every ~19 ACTs, so handlers run mid-round inside the chain again
    and again."""
    preset = by_name("lpddr4")
    config = legacy_platform(
        scale=scale_for(preset, cap=64), generation="lpddr4"
    ).with_primitives(PrimitiveSet.proposed())
    spy, _, fast = compare(
        config, lambda: [TargetedRefreshDefense()],
        pattern="many-sided", sides=8, spacing=spacing,
    )
    assert len(spy.handled) > 100
    assert any(index % call.round_len != call.round_len - 1
               for call, index in spy.handled)
    assert fast["defenses"][0]["victim_refreshes"] > 0


def test_half_double_splits_inside_a_weighted_line():
    """Half-Double hammers each far aggressor 8 times per round, so an
    in-chain handler often runs between two accesses to the same line;
    the catch-up must promote that line by its last access."""
    config = legacy_platform(
        scale=scale_for(by_name("lpddr4"), cap=64), generation="lpddr4"
    ).with_primitives(PrimitiveSet.proposed())
    spy, plan, _ = compare(
        config, lambda: [TargetedRefreshDefense()], pattern="half-double",
    )
    assert plan.weights == (8, 8, 1, 1)
    assert {index % call.round_len
            for call, index in spy.handled} & set(range(7))


def test_run_rounds_ending_mid_chunk():
    rounds = 2 * CHAIN_ROUNDS + CHAIN_ROUNDS // 2 + 5
    spy, _, fast = compare(
        legacy_platform(scale=8), lambda: [],
        drive=lambda system: ("rounds", rounds),
    )
    assert fast["iterations"] == rounds
    assert spy.calls[-1].rounds < CHAIN_ROUNDS


def test_run_rounds_with_handlers():
    spy, _, _ = compare(
        legacy_platform(scale=8).with_primitives(PrimitiveSet.proposed()),
        lambda: [TargetedRefreshDefense()],
        drive=lambda system: ("rounds", 3000),
    )
    assert spy.handled


def test_deadline_inside_a_chunk():
    spy, _, _ = compare(
        legacy_platform(scale=8), lambda: [],
        drive=lambda system: ("run", system.timings.tREFW // 7),
    )
    last = spy.calls[-1]
    assert 0 < last.serviced < last.reads
    assert last.serviced % last.round_len == 0


def test_closed_page_one_location():
    """A4's one-location attack: under the closed-page policy the chain
    precharges after every read, so each read of the lone aggressor
    activates its row again."""
    spy, _, fast = compare(
        legacy_platform(scale=64, page_policy="closed"), lambda: [],
        pattern="one-location",
    )
    assert spy.calls
    assert fast["mc"]["acts"] == fast["mc"]["reads"]


def test_remapped_rows():
    """E11's DRAM-internal row swaps: the chain must accrue disturbance
    on each ACT's internal row, not its logical one."""
    spy, _, fast = compare(
        legacy_platform(scale=64, remap_fraction=0.08), lambda: [],
    )
    assert spy.calls
    assert fast["tracker_flips"]


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


def test_breakhammer_scores_para_inside_the_chain():
    """BreakHammer over PARA: the gate, inline on every ACT, reads the
    neighbour refreshes PARA's actions count, so an action run late or
    early inside the chain moves blame, throttling and timing."""
    spy, _, fast = compare(
        legacy_platform(scale=64),
        lambda: [BreakHammerDefense(base=ParaDefense())],
        pattern="many-sided",
    )
    assert spy.handled
    assert fast["defenses"][0]["mitigations_attributed"] > 0


def test_handler_ends_the_chain_at_an_act_para_sees():
    """Aggressor-remap moves the page at an overflow and the chain ends
    at that ACT; PARA must still see it (its random stream advances
    once per ACT, on the chain as on ``submit``)."""
    config = legacy_platform(scale=64).with_primitives(
        PrimitiveSet.proposed()
    )
    spy, _, fast = compare(
        config, lambda: [AggressorRemapDefense(), ParaDefense()],
    )
    assert spy.cut_short
    assert fast["defenses"][0]["pages_moved"] > 0
    assert fast["defenses"][1]["neighbor_refreshes"] > 0


@pytest.mark.parametrize("forgives", [False, True],
                         ids=["reconfig-storm", "reconfig-storm-forgiving"])
def test_reconfiguration_storm(forgives):
    """The fault plane's storm re-draws every channel's overflow point
    (and, forgiving, zeroes the count) every 7 ACTs from inside the
    chain, between the targeted-refresh handler's interrupts."""
    faults = FaultConfig(
        seed=17, reconfig_every_acts=7, reconfig_forgives=forgives,
    )
    config = legacy_platform(scale=64, faults=faults).with_primitives(
        PrimitiveSet.proposed()
    )
    spy, _, fast = compare(config, lambda: [TargetedRefreshDefense()],
                           pattern="many-sided")
    assert len(spy.handled) > 100
    assert fast["faults"]["reconfig_storms"] > 100
    assert (fast["defenses"][0].get("interrupts", 0) > 0) != forgives


def test_observer_subscribed_mid_chain():
    """An interrupt handler subscribes an ACT observer at its first
    interrupt, inside a chain.  The observer sees every ACT from that
    one on, as on ``submit``; every 16th returns an action that reads
    what an action may touch: the CPU counters, the drained flips and
    the tracker's pressure next to the ACT's row."""
    config = legacy_platform(scale=64).with_primitives(
        PrimitiveSet.proposed()
    )

    def probe(scenario):
        system = scenario.system
        tracker = system.device.tracker
        seen = []

        def observer(address, now, domain, is_dma):
            seen.append((address.row_key(), now, domain, is_dma))
            if len(seen) % 16:
                return None
            channel, rank, bank, row = address.row_key()
            return lambda: seen.append((
                system.core.loads, system._flip_cursor, len(tracker.flips),
                tracker.pressure_of((channel, rank, bank, row - 1)),
                tracker.pressure_of((channel, rank, bank, row + 1)),
            ))

        def subscribe(interrupt):
            if not seen:
                system.controller.add_act_observer(observer)

        system.controller.subscribe_interrupts(subscribe)
        return seen

    spy, _, fast = compare(config, lambda: [TargetedRefreshDefense()],
                           probe=probe)
    assert spy.calls[0].handled
    assert len(fast["probe"]) > 1000


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


# ----------------------------------------------------------------------
# The evader
# ----------------------------------------------------------------------


def e10_config(seed=None):
    config = legacy_platform(scale=64).with_primitives(
        PrimitiveSet.proposed()
    )
    return config if seed is None else replace(config, seed=seed)


def e10_defense(jitter_fraction):
    return lambda: [TargetedRefreshDefense(
        interrupt_fraction=0.125, jitter_fraction=jitter_fraction,
    )]


def evade(config, make_defenses, oracle, drive=one_window):
    """E10's duel: plan double-sided, pick decoys, believe the
    counter's threshold, and run the evader one way or the other."""
    defenses = make_defenses()
    scenario = build_scenario(
        config, defenses=defenses, interleaved_allocation=True
    )
    system = scenario.system
    planner = AttackPlanner(system, scenario.attacker)
    plan = planner.plan(scenario.victim, "double-sided")
    threshold = next(iter(system.controller.counters.values())).threshold
    attacker = EvasiveAttacker(
        system, scenario.attacker, plan, _decoy_lines(planner, plan),
        believed_threshold=threshold,
    )
    spy = ChainSpy(system)
    _, duration = drive(system)
    result = (oracle_evade if oracle else EvasiveAttacker.run)(
        attacker, duration
    )
    return snapshot(system, result, defenses), spy


def compare_evasion(config, make_defenses, drive=one_window):
    """Run the evader both ways; assert they agree; return the fast
    run's spy and snapshot."""
    fast, spy = evade(config, make_defenses, False, drive)
    slow, oracle_spy = evade(config, make_defenses, True, drive)
    assert not oracle_spy.calls
    for key in slow:
        assert fast[key] == slow[key], key
    return spy, fast


def ended_by_a_handler(spy):
    """Chains that ``after()`` ended inside their stretch."""
    return [
        call for call in spy.calls
        if call.handled and call.serviced == call.handled[-1] + 1
        and call.serviced < call.reads
    ]


@pytest.mark.parametrize("jitter_fraction", [0.0, 0.1, 0.25, 0.5],
                         ids=["e10-fixed", "a2-0.1", "e10-randomized",
                              "a2-0.5"])
def test_evader_matches_the_oracle(jitter_fraction):
    """E10's two arms and A2's other two jitter fractions: a
    targeted-refresh handler every ~20 ACTs runs inside the stretch."""
    spy, fast = compare_evasion(e10_config(), e10_defense(jitter_fraction))
    assert len(spy.handled) > 100
    assert fast["acts"][1] > 0
    assert not ended_by_a_handler(spy)


@pytest.mark.parametrize("seed", range(101, 109))
def test_evader_replication_seeds(seed):
    """``EvasionReplicationSpec``'s duel at the seeds E10's replication
    runs: the per-channel jitter stream differs per seed."""
    spy, fast = compare_evasion(e10_config(seed), e10_defense(0.25))
    assert spy.handled
    assert fast["acts"][1] > 0


def test_evader_undefended_never_reaches_a_decoy():
    spy, fast = compare_evasion(e10_config(), lambda: [])
    assert spy.calls and not spy.handled
    assert fast["acts"][0] > 0 and fast["acts"][1] == 0
    assert all(call.reads <= STRETCH for call in spy.calls)


@pytest.mark.parametrize(
    "cls, moved",
    [(AggressorRemapDefense, "pages_moved"),
     (CacheLineLockingDefense, "lines_locked")],
    ids=["aggressor-remap", "line-locking"],
)
def test_evader_against_handlers_that_move_and_lock(cls, moved):
    """Registry defaults: a handler moves the page or locks the line
    the stretch reads, so the chain ends right after it and the
    evader's next accesses go per access until resident again."""
    config, _ = sweep_config(cls)
    spy, fast = compare_evasion(config, lambda: [cls()])
    assert ended_by_a_handler(spy)
    assert fast["defenses"][0][moved] > 0


def test_evader_deadline_inside_a_stretch():
    spy, fast = compare_evasion(
        e10_config(), e10_defense(0.0),
        drive=lambda system: ("run", system.timings.tREFW // 7),
    )
    last = spy.calls[-1]
    assert 0 < last.serviced < last.reads
