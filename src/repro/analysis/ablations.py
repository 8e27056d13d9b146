"""Ablations: demonstrate that the design choices DESIGN.md calls out
are load-bearing, by switching each off and re-running the scenario it
protects.

A1 — wear-leveling rotation: frame parking and destination rotation
     (the two mechanisms §4.2's one-sentence "remap and move" glosses
     over) are each necessary for the remap defense to hold.
A2 — counter-reset jitter: sweep the jitter fraction against the
     phase-tracking evader (the knob behind E10's two endpoints).
A3 — locked-way budget: how many reserved LLC ways the locking defense
     needs against a column-rotating attacker before it falls back to
     page moves.
A4 — row-buffer page policy: open-page absorbs one-location hammering
     (the §2.1 bank-conflict requirement) while closed-page hands the
     attacker a 20x higher activation rate; locality workloads pay the
     inverse price.
A5 — interrupt threshold: the detection-latency vs. refresh-overhead
     trade-off of the targeted-refresh defense.

Each returns an :class:`ExperimentOutcome` (ids A1..A5) so the CLI and
EXPERIMENTS.md treat them like the E-series.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.experiments import ExperimentOutcome
from repro.analysis.scenarios import build_scenario, run_attack
from repro.analysis.tables import Table
from repro.attacks import AttackPlanner, Attacker, EvasiveAttacker
from repro.core.primitives import PrimitiveSet
from repro.defenses import (
    AggressorRemapDefense,
    CacheLineLockingDefense,
    TargetedRefreshDefense,
)
from repro.sim import build_system, legacy_platform
from repro.workloads import WorkloadRunner


def _prims(scale: int):
    return legacy_platform(scale=scale).with_primitives(PrimitiveSet.proposed())


# ----------------------------------------------------------------------
# A1 — wear-leveling rotation mechanisms
# ----------------------------------------------------------------------

def run_a1(scale: int = 64) -> ExperimentOutcome:
    """Switch off frame parking / destination rotation in the remap
    defense and watch the attack come back."""
    table = Table(
        "A1 — ablating the wear-leveling rotation mechanisms",
        ("park_vacated_frames", "rotate_destinations", "cross_domain_flips",
         "pages_moved"),
    )
    flips: Dict[tuple, int] = {}
    for park in (True, False):
        for rotate in (True, False):
            defense = AggressorRemapDefense(
                park_vacated=park, rotate_destinations=rotate
            )
            scenario = build_scenario(
                _prims(scale), defenses=[defense],
                interleaved_allocation=True,
            )
            result = run_attack(scenario, "double-sided")
            flips[(park, rotate)] = result.cross_domain_flips
            table.add(park, rotate, result.cross_domain_flips,
                      defense.counters.get("pages_moved", 0))
    table.add_note("without parking, first-fit reallocation ping-pongs "
                   "the hammer between two frames; without rotation, "
                   "consecutive destinations share a DRAM row — either "
                   "way accumulated victim pressure survives the moves")
    verdict = flips[(True, True)] == 0 and any(
        count > 0 for key, count in flips.items() if key != (True, True)
    )
    return ExperimentOutcome(
        experiment_id="A1",
        title="wear-leveling rotation ablation",
        claim="both frame parking and destination rotation are necessary "
              "for remap-based wear-leveling (§4.2) to hold",
        tables=[table],
        verdict=verdict,
        verdict_detail=f"flips by (park, rotate): {flips}",
    )


# ----------------------------------------------------------------------
# A2 — jitter sweep vs the evader
# ----------------------------------------------------------------------

def run_a2(scale: int = 64,
           fractions: Sequence[float] = (0.0, 0.1, 0.25, 0.5)) -> ExperimentOutcome:
    """Sweep counter-reset jitter against the phase-tracking evader."""
    from repro.analysis.experiments import _decoy_lines

    table = Table(
        "A2 — counter-reset jitter vs the phase-tracking evader",
        ("jitter_fraction", "cross_domain_flips", "aggressor_acts"),
    )
    by_fraction = {}
    for fraction in fractions:
        defense = TargetedRefreshDefense(
            interrupt_fraction=0.125, jitter_fraction=fraction
        )
        scenario = build_scenario(
            _prims(scale), defenses=[defense], interleaved_allocation=True
        )
        system = scenario.system
        planner = AttackPlanner(system, scenario.attacker)
        plan = planner.plan(scenario.victim, "double-sided")
        threshold = next(iter(system.controller.counters.values())).threshold
        attacker = EvasiveAttacker(
            system, scenario.attacker, plan,
            decoy_lines=_decoy_lines(planner, plan),
            believed_threshold=threshold,
        )
        result = attacker.run(duration_ns=system.timings.tREFW)
        by_fraction[fraction] = result.cross_domain_flips
        table.add(fraction, result.cross_domain_flips, result.aggressor_acts)
    verdict = by_fraction[0.0] > 0 and all(
        by_fraction[f] == 0 for f in fractions if f >= 0.25
    )
    return ExperimentOutcome(
        experiment_id="A2",
        title="jitter-fraction sweep",
        claim="modest reset randomness suffices to defeat threshold "
              "evasion (§4.2)",
        tables=[table],
        verdict=verdict,
        verdict_detail=f"flips by jitter: {by_fraction}",
    )


# ----------------------------------------------------------------------
# A3 — locked-way budget vs a column-rotating attacker
# ----------------------------------------------------------------------

def run_a3(scale: int = 64,
           budgets: Sequence[int] = (1, 2, 4)) -> ExperimentOutcome:
    """Sweep the locked-way budget against a column-rotating hammer."""
    table = Table(
        "A3 — locked-way budget vs a column-rotating hammer",
        ("max_locked_ways", "cross_domain_flips", "lines_locked",
         "fallback_moves"),
    )
    rows = {}
    for budget in budgets:
        config = _prims(scale)
        from dataclasses import replace

        config = replace(config, max_locked_ways=budget, cache_ways=8)
        defense = CacheLineLockingDefense()
        scenario = build_scenario(
            config, defenses=[defense], interleaved_allocation=True
        )
        system = scenario.system
        planner = AttackPlanner(system, scenario.attacker)
        plan = planner.plan(scenario.victim, "double-sided")
        # rotate over every column of the aggressor rows so each lock
        # only silences one of many lines
        lines = []
        for base in plan.aggressor_lines:
            page = base // scenario.attacker.lines_per_page
            for offset in range(scenario.attacker.lines_per_page):
                lines.append(page * scenario.attacker.lines_per_page + offset)
        from repro.attacks.patterns import AttackPlan

        rotating = AttackPlan(
            pattern="many-sided",
            aggressor_lines=tuple(lines),
            expected_victim_rows=plan.expected_victim_rows,
        )
        result = Attacker(system, scenario.attacker, rotating).run(
            duration_ns=system.timings.tREFW
        )
        rows[budget] = result.cross_domain_flips
        table.add(
            budget, result.cross_domain_flips,
            defense.counters.get("lines_locked", 0),
            defense.counters.get("fallback_moves", 0)
            + defense.counters.get("lock_budget_exhausted", 0),
        )
    table.add_note("the attacker rotates across all cache lines of its "
                   "aggressor rows; small way budgets push the defense "
                   "into its remap fallback (§4.2's two-tier design)")
    verdict = all(count == 0 for count in rows.values())
    return ExperimentOutcome(
        experiment_id="A3",
        title="locked-way budget sweep",
        claim="line locking holds even when its way budget saturates, "
              "because the remap fallback catches the spill (§4.2)",
        tables=[table],
        verdict=verdict,
        verdict_detail=f"flips by budget: {rows}",
    )


# ----------------------------------------------------------------------
# A4 — row-buffer page policy
# ----------------------------------------------------------------------

def run_a4(scale: int = 64) -> ExperimentOutcome:
    """Open vs closed row-buffer policy: one-location ACT rate and the
    locality price."""
    table = Table(
        "A4 — row-buffer policy: one-location hammering and locality cost",
        ("page_policy", "one_location_acts_per_window",
         "sequential_elapsed_us"),
    )
    acts = {}
    elapsed = {}
    for policy in ("open", "closed"):
        scenario = build_scenario(legacy_platform(scale=scale, page_policy=policy))
        run_attack(scenario, "one-location")
        acts[policy] = scenario.system.device.total_acts()

        system = build_system(legacy_platform(scale=scale, page_policy=policy))
        tenant = system.create_domain("t", pages=16)
        result = WorkloadRunner(system, tenant, name="sequential", mlp=4).run(1500)
        elapsed[policy] = result.duration_ns / 1000.0
        table.add(policy, acts[policy], round(elapsed[policy], 1))
    table.add_note("open-page turns a lone hammered row into buffer hits "
                   "(the §2.1 reason attacks need bank conflicts); "
                   "closed-page multiplies the one-location ACT rate but "
                   "taxes locality")
    verdict = (
        acts["closed"] > 10 * acts["open"]
        and elapsed["closed"] > elapsed["open"]
    )
    return ExperimentOutcome(
        experiment_id="A4",
        title="page-policy ablation",
        claim="the open-page policy is itself a partial one-location "
              "defense; closing pages trades that away for conflict "
              "immunity (§2.1 context)",
        tables=[table],
        verdict=verdict,
        verdict_detail=f"acts: {acts}; sequential elapsed us: "
                       f"{ {k: round(v,1) for k, v in elapsed.items()} }",
    )


# ----------------------------------------------------------------------
# A5 — interrupt-threshold trade-off
# ----------------------------------------------------------------------

def run_a5(scale: int = 64,
           fractions: Sequence[float] = (0.05, 0.125, 0.25, 0.5),
           ) -> ExperimentOutcome:
    """Sweep the interrupt threshold: detection margin vs refresh cost."""
    table = Table(
        "A5 — targeted-refresh interrupt threshold trade-off",
        ("interrupt_fraction_of_mac", "cross_domain_flips",
         "victim_refreshes", "interrupts"),
    )
    flips = {}
    overhead = {}
    for fraction in fractions:
        defense = TargetedRefreshDefense(interrupt_fraction=fraction)
        scenario = build_scenario(
            _prims(scale), defenses=[defense], interleaved_allocation=True
        )
        result = run_attack(scenario, "double-sided")
        flips[fraction] = result.cross_domain_flips
        overhead[fraction] = defense.counters.get("victim_refreshes", 0)
        table.add(
            fraction, result.cross_domain_flips,
            overhead[fraction], defense.counters.get("interrupts", 0),
        )
    table.add_note("lower thresholds detect earlier but refresh more; "
                   "past ~0.5xMAC the defense reacts too late against a "
                   "double-sided pair (victim pressure ~= 2x per-row count)")
    protective = [f for f in fractions if flips[f] == 0]
    verdict = (
        bool(protective)
        and flips[min(fractions)] == 0
        and overhead[min(fractions)] > overhead[max(protective)] * 0.9
    )
    return ExperimentOutcome(
        experiment_id="A5",
        title="interrupt-threshold sweep",
        claim="the interrupt threshold is a pure software policy knob "
              "trading refresh overhead against detection margin (§4.2)",
        tables=[table],
        verdict=verdict,
        verdict_detail=f"flips by fraction: {flips}",
    )


# ----------------------------------------------------------------------
# A6 — refresh-rate increase (the industry countermeasure)
# ----------------------------------------------------------------------

def run_a6(scale: int = 64,
           multipliers: Sequence[int] = (1, 2, 4, 8),
           ) -> ExperimentOutcome:
    """Sweep the refresh-rate multiplier: flips vs REF bus duty cycle."""
    table = Table(
        "A6 — refresh-rate increase vs double-sided hammering",
        ("refresh_multiplier", "cross_domain_flips", "ref_bursts",
         "refresh_duty_pct"),
    )
    flips = {}
    duty = {}
    for multiplier in multipliers:
        scenario = build_scenario(
            legacy_platform(scale=scale, refresh_multiplier=multiplier),
            interleaved_allocation=True,
        )
        result = run_attack(scenario, "double-sided")
        system = scenario.system
        window = system.timings.tREFW
        bursts = system.controller.stats.ref_bursts
        duty[multiplier] = 100.0 * bursts * system.timings.tRFC / max(1, window)
        flips[multiplier] = result.cross_domain_flips
        table.add(multiplier, flips[multiplier], bursts,
                  round(duty[multiplier], 1))
    table.add_note("the blunt countermeasure: refresh every row m times "
                   "per retention window.  Where it finally protects, the "
                   "REF duty cycle has swallowed the memory bus — the "
                   "section-3 argument that refresh scaling cannot keep "
                   "up with density")
    protective = [m for m in multipliers if flips[m] == 0]
    verdict = (
        flips[multipliers[0]] > 0
        and bool(protective)
        and min(duty[m] for m in protective) > 50.0
    )
    return ExperimentOutcome(
        experiment_id="A6",
        title="refresh-rate increase sweep",
        claim="raising the refresh rate only stops hammering once REF "
              "commands saturate the bus (§3: mitigations must scale "
              "smarter than refresh)",
        tables=[table],
        verdict=verdict,
        verdict_detail=(
            f"flips: {flips}; duty%: "
            f"{ {m: round(d, 1) for m, d in duty.items()} }"
        ),
    )


# ----------------------------------------------------------------------
# A7 — request scheduling policy on a shared MC queue
# ----------------------------------------------------------------------

def run_a7(scale: int = 64, accesses: int = 6000,
           tenants: int = 3) -> ExperimentOutcome:
    """FCFS vs FR-FCFS on a shared multi-tenant queue: row locality and
    throughput."""
    from repro.workloads import SharedQueueRunner, WorkloadRunner

    table = Table(
        "A7 — MC request scheduling on a shared multi-tenant queue",
        ("policy", "elapsed_us", "row_hit_rate", "requests_reordered"),
    )
    elapsed = {}
    hits = {}
    for policy in ("fcfs", "fr-fcfs"):
        system = build_system(legacy_platform(scale=scale))
        handles = [
            system.create_domain(f"tenant{i}", pages=32)
            for i in range(tenants)
        ]
        sources = [
            WorkloadRunner(system, handle, name="sequential", mlp=1, seed=5 + i)
            for i, handle in enumerate(handles)
        ]
        shared = SharedQueueRunner(system, sources, window=24, policy=policy)
        finish = shared.run(accesses)
        elapsed[policy] = finish / 1000.0
        hits[policy] = system.controller.stats.row_hit_rate
        table.add(policy, round(elapsed[policy], 1),
                  round(hits[policy], 3), shared.scheduler.reordered)
    table.add_note("three sequential tenants interleave in one queue; "
                   "FCFS lets them thrash each other's row buffers, "
                   "FR-FCFS restores the locality the open-page policy "
                   "depends on")
    verdict = (
        hits["fr-fcfs"] > hits["fcfs"] + 0.1
        and elapsed["fr-fcfs"] < elapsed["fcfs"] * 0.9
    )
    return ExperimentOutcome(
        experiment_id="A7",
        title="request-scheduling policy",
        claim="row-hit-first scheduling is what keeps the open-page "
              "policy's benefits alive under multi-tenant interleaving "
              "(context for the performance stakes in section 4.1)",
        tables=[table],
        verdict=verdict,
        verdict_detail=(
            f"hit rate {hits['fcfs']:.3f} -> {hits['fr-fcfs']:.3f}; "
            f"elapsed {elapsed['fcfs']:.1f} -> {elapsed['fr-fcfs']:.1f} us"
        ),
    )


# ----------------------------------------------------------------------
# A8 — all-bank vs per-bank refresh bursts
# ----------------------------------------------------------------------

def run_a8(scale: int = 64, accesses: int = 4000) -> ExperimentOutcome:
    """REFab vs REFpb at an elevated refresh rate: benign cost vs
    protection."""
    table = Table(
        "A8 — refresh burst granularity (at 4x refresh rate)",
        ("refresh_mode", "benign_elapsed_us", "attack_cross_flips"),
    )
    elapsed = {}
    flips = {}
    for mode in ("all-bank", "per-bank"):
        config = legacy_platform(
            scale=scale, refresh_mode=mode, refresh_multiplier=4
        )
        system = build_system(config)
        tenant = system.create_domain("t", pages=64)
        result = WorkloadRunner(
            system, tenant, name="random", mlp=8, seed=3
        ).run(accesses)
        elapsed[mode] = result.duration_ns / 1000.0

        scenario = build_scenario(config, interleaved_allocation=True)
        flips[mode] = run_attack(scenario, "double-sided").cross_domain_flips
        table.add(mode, round(elapsed[mode], 1), flips[mode])
    table.add_note("per-bank refresh (DDR4 REFpb) blocks one bank at a "
                   "time, recovering most of the bus the refresh-rate "
                   "increase burned — without changing what the sweep "
                   "protects (or fails to)")
    verdict = (
        elapsed["per-bank"] < elapsed["all-bank"]
        and (flips["per-bank"] > 0) == (flips["all-bank"] > 0)
    )
    return ExperimentOutcome(
        experiment_id="A8",
        title="refresh burst granularity",
        claim="burst granularity is a performance knob, not a security "
              "one: per-bank refresh cuts the refresh tax while the "
              "protection picture is unchanged",
        tables=[table],
        verdict=verdict,
        verdict_detail=(
            f"elapsed us {elapsed['all-bank']:.1f} -> "
            f"{elapsed['per-bank']:.1f}; flips {flips}"
        ),
    )


ABLATIONS = {
    "A1": run_a1,
    "A2": run_a2,
    "A3": run_a3,
    "A4": run_a4,
    "A5": run_a5,
    "A6": run_a6,
    "A7": run_a7,
    "A8": run_a8,
}
