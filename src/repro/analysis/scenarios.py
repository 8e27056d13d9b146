"""Reusable scenario builders shared by the experiments.

Every experiment is "build a platform, populate tenants, optionally
attach defenses, run an attack and/or benign load, snapshot metrics".
These helpers keep that mechanical part identical across experiments so
differences in results come only from the knob under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.attacks import Attacker, AttackPlanner, AttackResult
from repro.defenses.base import Defense
from repro.sim import (
    Engine,
    RunMetrics,
    System,
    SystemConfig,
    build_system,
    collect_metrics,
)
from repro.workloads import WorkloadRunner

#: default tenant size (pages); large enough for multi-row footprints
DEFAULT_PAGES = 64


@dataclass
class Scenario:
    """A built platform with a victim and an attacker tenant."""

    system: System
    victim: "object"
    attacker: "object"
    defenses: List[Defense] = field(default_factory=list)

    def metrics(self, label: str, elapsed_ns: Optional[int] = None) -> RunMetrics:
        return collect_metrics(
            self.system, label, elapsed_ns=elapsed_ns, defenses=self.defenses
        )


def build_scenario(
    config: SystemConfig,
    defenses: Sequence[Defense] = (),
    victim_pages: int = DEFAULT_PAGES,
    attacker_pages: int = DEFAULT_PAGES,
    interleaved_allocation: bool = False,
    victim_enclave: bool = False,
    enclave_integrity: bool = True,
    attach_before_alloc: bool = True,
) -> Scenario:
    """Build a system with a victim and an attacker tenant.

    ``interleaved_allocation`` grows the two tenants in alternating
    8-page slabs, producing the finely interleaved row ownership that
    many-sided (TRRespass-style) attacks need; the default allocates
    each tenant contiguously.

    Defenses that are allocator policies must observe allocations, so
    defenses attach *before* tenants are populated by default.
    """
    system = build_system(config)
    defenses = list(defenses)
    if attach_before_alloc:
        for defense in defenses:
            defense.attach(system)
    if interleaved_allocation:
        victim = system.create_domain(
            "victim", pages=0, enclave=victim_enclave,
            integrity_checked=enclave_integrity,
        )
        attacker = system.create_domain("attacker", pages=0)
        remaining_victim, remaining_attacker = victim_pages, attacker_pages
        slab = 8
        while remaining_victim > 0 or remaining_attacker > 0:
            if remaining_victim > 0:
                take = min(slab, remaining_victim)
                victim.grow(take)
                remaining_victim -= take
            if remaining_attacker > 0:
                take = min(slab, remaining_attacker)
                attacker.grow(take)
                remaining_attacker -= take
    else:
        victim = system.create_domain(
            "victim", pages=victim_pages, enclave=victim_enclave,
            integrity_checked=enclave_integrity,
        )
        attacker = system.create_domain("attacker", pages=attacker_pages)
    if not attach_before_alloc:
        for defense in defenses:
            defense.attach(system)
    return Scenario(system, victim, attacker, defenses)


def run_attack(
    scenario: Scenario,
    pattern: str = "double-sided",
    sides: int = 8,
    windows: float = 1.0,
    use_dma: bool = False,
    intra_domain: bool = False,
    spacing: int = 2,
) -> AttackResult:
    """Plan and execute one attack for ``windows`` refresh windows."""
    planner = AttackPlanner(scenario.system, scenario.attacker)
    if intra_domain:
        plan = planner.plan_intra_domain(pattern, sides=sides)
    else:
        plan = planner.plan(scenario.victim, pattern, sides=sides,
                            spacing=spacing)
    attacker = Attacker(scenario.system, scenario.attacker, plan, use_dma=use_dma)
    duration = max(1, int(scenario.system.timings.tREFW * windows))
    if not plan.viable:
        # Nothing to hammer: still advance time so metrics are comparable.
        scenario.system.controller.advance_to(duration)
        return AttackResult(
            plan=plan, hammer_iterations=0, started_ns=0,
            finished_ns=duration, flips=[],
        )
    return attacker.run(duration_ns=duration)


def run_attack_under_noise(
    scenario: Scenario,
    pattern: str = "double-sided",
    sides: int = 8,
    windows: float = 1.0,
    workload: str = "random",
    use_dma: bool = False,
    scheduler: str = "fcfs",
) -> Tuple[AttackResult, int]:
    """Attack while the victim runs a benign workload (noise for the
    defense's counters).  Returns (attack result, flips seen).

    ``scheduler`` selects the victim's issue path: "fr-fcfs" routes its
    MLP windows through the batch scheduler (exercised by the fault
    matrix's stall scenario)."""
    system = scenario.system
    planner = AttackPlanner(system, scenario.attacker)
    plan = planner.plan(scenario.victim, pattern, sides=sides)
    attacker = Attacker(system, scenario.attacker, plan, use_dma=use_dma)
    runner = WorkloadRunner(
        system, scenario.victim, name=workload, mlp=4, scheduler=scheduler
    )
    horizon = max(1, int(system.timings.tREFW * windows))
    actors = [runner] if not plan.viable else [attacker, runner]
    engine = Engine(system, actors)
    result = engine.run(horizon_ns=horizon)
    flips = system.all_flips()
    return (
        AttackResult(
            plan=plan,
            hammer_iterations=result.steps_per_actor.get(0, 0) if plan.viable else 0,
            started_ns=0,
            finished_ns=result.finished_ns,
            flips=flips,
        ),
        result.flips_seen,
    )


def run_benign(
    config: SystemConfig,
    defenses: Sequence[Defense] = (),
    workload: str = "random",
    accesses: int = 20_000,
    pages: int = DEFAULT_PAGES,
    mlp: int = 8,
    tenants: int = 2,
) -> Tuple[RunMetrics, float]:
    """Run only benign tenants; returns (metrics, elapsed_ns).

    Multiple tenants share the machine so allocator policies and
    interleaving effects show up exactly as §4.1 describes."""
    system = build_system(config)
    defense_list = list(defenses)
    for defense in defense_list:
        defense.attach(system)
    handles = [
        system.create_domain(f"tenant{i}", pages=pages) for i in range(tenants)
    ]
    runners = [
        WorkloadRunner(system, handle, name=workload, mlp=mlp, seed=11 + i)
        for i, handle in enumerate(handles)
    ]
    per_runner = max(1, accesses // len(runners))
    # Interleave the tenants by local clock until each has issued its
    # access budget (a fixed-work run, so elapsed time is the metric).
    clocks = [0] * len(runners)
    issued = [0] * len(runners)
    while any(issued[i] < per_runner for i in range(len(runners))):
        index = min(
            (i for i in range(len(runners)) if issued[i] < per_runner),
            key=lambda i: clocks[i],
        )
        clocks[index] = runners[index].step(clocks[index])
        issued[index] += runners[index].mlp
        if system.has_pending_flips():
            system.drain_flips()
    elapsed = max(clocks)
    system.controller.advance_to(elapsed)
    metrics = collect_metrics(
        system, label=workload, elapsed_ns=elapsed, defenses=defense_list
    )
    return metrics, float(elapsed)
