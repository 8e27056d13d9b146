"""Seeded replication specs and the worker-count helpers.

Every replication in :func:`repro.analysis.stats.replicate` owns its
seed: runs share no mutable state, so :func:`repro.runtime.run_campaign`
can fan them out across worker processes and merge them back in seed
order, bit-identical to the serial path.  The worker count comes from
(highest priority first) an explicit ``jobs`` argument, the
``REPRO_JOBS`` environment variable, then the host CPU count.

Scenario callables crossing a process boundary must be picklable, which
closures (e.g. ``stats.attack_observables``) are not.  The spec classes
below are the picklable equivalents: frozen dataclasses whose
``__call__(seed)`` rebuilds the scenario inside the worker.  They cover
the replication-heavy experiment shapes — the E4-style attack matrix
cell, the E10-style evasion duel, and the E13/E5-style benign overhead
run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.stats import Number, ScenarioFn

#: environment variable controlling the default worker count
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``, else the host CPU count."""
    value = os.environ.get(JOBS_ENV, "").strip()
    if value:
        try:
            jobs = int(value)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be a positive integer, got {value!r}"
            ) from None
        if jobs < 1:
            raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
        return jobs
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """An explicit ``jobs`` wins; ``None`` falls back to the env/host."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def effective_workers(jobs: int, task_count: int) -> int:
    """Clamp the worker count to the work available.

    Spawning a worker costs a fork plus interpreter warm-up, so a tiny
    campaign must never pay for more processes than it has seeds.  The
    :mod:`repro.runtime` supervisor and ``repro replicate``'s report
    of the worker count both go through this one function.
    """
    return max(1, min(jobs, task_count))


# ----------------------------------------------------------------------
# Picklable scenario specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AttackReplicationSpec:
    """One E4-style cell: platform + defense vs one attack pattern.

    ``platform`` is a :data:`repro.sim.config.PLATFORMS` name;
    ``defense`` a :data:`repro.defenses.registry.DEFENSE_BY_NAME` name
    or ``None``.
    """

    platform: str = "legacy"
    defense: Optional[str] = None
    pattern: str = "double-sided"
    sides: int = 8
    use_dma: bool = False
    scale: int = 64
    #: optional ACT-counter arming (None keeps the platform default);
    #: the trace CLI uses these so an E4 trace has a live interrupt
    #: timeline even on platforms that ship with counters "off"
    act_threshold: Optional[int] = None
    precise_interrupts: Optional[bool] = None

    def __call__(self, seed: int) -> Dict[str, Number]:
        from repro.analysis.scenarios import build_scenario, run_attack
        from repro.defenses.registry import DEFENSE_BY_NAME, build_overrides
        from repro.sim.config import platform_config

        cls = DEFENSE_BY_NAME[self.defense] if self.defense else None
        overrides = build_overrides(cls)
        if self.act_threshold is not None:
            overrides["act_threshold"] = self.act_threshold
        if self.precise_interrupts is not None:
            overrides["precise_act_interrupts"] = self.precise_interrupts
        config = platform_config(
            self.platform, scale=self.scale, seed=seed, **overrides
        )
        defenses = [cls()] if cls else []
        scenario = build_scenario(
            config, defenses=defenses, interleaved_allocation=True
        )
        result = run_attack(
            scenario, self.pattern, sides=self.sides, use_dma=self.use_dma
        )
        stats = scenario.system.controller.stats
        return {
            "cross_domain_flips": result.cross_domain_flips,
            "intra_domain_flips": result.intra_domain_flips,
            "hammer_iterations": result.hammer_iterations,
            "acts": stats.acts,
        }


@dataclass(frozen=True)
class EvasionReplicationSpec:
    """One E10-style duel: the threshold-evading attacker against a
    targeted-refresh defense with a fixed or jittered counter reset."""

    jitter_fraction: float = 0.25
    interrupt_fraction: float = 0.125
    scale: int = 64

    def __call__(self, seed: int) -> Dict[str, Number]:
        from repro.analysis.experiments import _decoy_lines
        from repro.analysis.scenarios import build_scenario
        from repro.attacks import AttackPlanner, EvasiveAttacker
        from repro.defenses import TargetedRefreshDefense
        from repro.sim.config import platform_config

        config = platform_config(
            "legacy+primitives", scale=self.scale, seed=seed
        )
        defense = TargetedRefreshDefense(
            interrupt_fraction=self.interrupt_fraction,
            jitter_fraction=self.jitter_fraction,
        )
        scenario = build_scenario(
            config, defenses=[defense], interleaved_allocation=True
        )
        system = scenario.system
        planner = AttackPlanner(system, scenario.attacker)
        plan = planner.plan(scenario.victim, "double-sided")
        threshold = next(iter(system.controller.counters.values())).threshold
        decoys = _decoy_lines(planner, plan)
        attacker = EvasiveAttacker(
            system, scenario.attacker, plan, decoys,
            believed_threshold=threshold,
        )
        result = attacker.run(duration_ns=system.timings.tREFW)
        return {
            "cross_domain_flips": result.cross_domain_flips,
            "aggressor_acts": result.aggressor_acts,
            "decoy_acts": result.decoy_acts,
            "finished_ns": result.finished_ns,
        }


@dataclass(frozen=True)
class BenignReplicationSpec:
    """One E13/E5-style benign overhead run: fixed-work multi-tenant
    traffic with an optional defense attached."""

    platform: str = "legacy"
    defense: Optional[str] = None
    workload: str = "zipfian"
    accesses: int = 10_000
    pages: int = 128
    scale: int = 8

    def __call__(self, seed: int) -> Dict[str, Number]:
        from repro.analysis.scenarios import run_benign
        from repro.defenses.registry import DEFENSE_BY_NAME, build_overrides
        from repro.sim.config import platform_config

        cls = DEFENSE_BY_NAME[self.defense] if self.defense else None
        config = platform_config(
            self.platform, scale=self.scale, seed=seed,
            **build_overrides(cls),
        )
        defenses = [cls()] if cls else []
        metrics, elapsed = run_benign(
            config, defenses=defenses, workload=self.workload,
            accesses=self.accesses, pages=self.pages,
        )
        return {
            "elapsed_ns": elapsed,
            "requests": metrics.requests,
            "acts": metrics.acts,
        }


#: replicate-subcommand name -> representative spec
REPLICATION_SPECS: Dict[str, ScenarioFn] = {
    "E4": AttackReplicationSpec(),
    "E10": EvasionReplicationSpec(),
    "E13": BenignReplicationSpec(),
}
