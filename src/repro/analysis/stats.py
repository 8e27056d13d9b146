"""Seeded-replication statistics: quantify run-to-run variance.

Single-seed results can mislead (PARA's protection, jittered counters,
and zipfian workloads are all stochastic).  ``replicate`` runs a
scenario function across seeds and aggregates any numeric observables it
returns; experiments quote the spread instead of a lucky draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Union

Number = Union[int, float]

#: a scenario function: seed -> {observable name: value}
ScenarioFn = Callable[[int], Mapping[str, Number]]


@dataclass(frozen=True)
class Aggregate:
    """Summary of one observable across replications."""

    name: str
    samples: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def stderr(self) -> float:
        return self.stdev / math.sqrt(self.samples) if self.samples else 0.0

    def interval95(self) -> tuple:
        """A plain normal-approximation 95% interval for the mean."""
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    def describe(self) -> str:
        low, high = self.interval95()
        return (
            f"{self.name}: {self.mean:.3g} "
            f"(95% CI [{low:.3g}, {high:.3g}], "
            f"range [{self.minimum:.3g}, {self.maximum:.3g}], "
            f"n={self.samples})"
        )


def aggregate(name: str, values: Sequence[Number]) -> Aggregate:
    """Summarize one observable's samples."""
    if not values:
        raise ValueError("need at least one sample")
    floats = [float(value) for value in values]
    mean = sum(floats) / len(floats)
    if len(floats) > 1:
        variance = sum((v - mean) ** 2 for v in floats) / (len(floats) - 1)
    else:
        variance = 0.0
    return Aggregate(
        name=name,
        samples=len(floats),
        mean=mean,
        stdev=math.sqrt(variance),
        minimum=min(floats),
        maximum=max(floats),
    )


def merge_replications(
    runs: Sequence[Mapping[str, Number]]
) -> Dict[str, Aggregate]:
    """Aggregate per-seed observation maps (in replication order) into
    one :class:`Aggregate` per observable.

    The merge is deterministic in the order of ``runs``, so serial and
    process-parallel replication paths produce bit-identical aggregates
    as long as they present results in the same seed order.

    All replications must report the same observable names — a missing
    key usually means the scenario silently failed for one seed, which
    should be an error, not a NaN.
    """
    if not runs:
        raise ValueError("need at least one replication")
    names = set(runs[0])
    for index, run in enumerate(runs[1:], start=1):
        if set(run) != names:
            raise ValueError(
                f"replication {index} reported observables {sorted(run)}, "
                f"expected {sorted(names)}"
            )
    return {
        name: aggregate(name, [run[name] for run in runs])
        for name in sorted(names)
    }


def replicate(
    scenario: ScenarioFn, seeds: Sequence[int]
) -> Dict[str, Aggregate]:
    """Run ``scenario`` once per seed and aggregate every observable.

    This is the serial reference path; :func:`repro.runtime.run_campaign`
    fans the same per-seed runs across worker processes and merges them
    through the same :func:`merge_replications` fold.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    runs: List[Mapping[str, Number]] = [scenario(seed) for seed in seeds]
    return merge_replications(runs)


def attack_observables(config_factory, pattern: str = "double-sided",
                       **attack_kwargs) -> ScenarioFn:
    """Convenience scenario: build a system from ``config_factory(seed)``,
    run one attack, report the standard security/performance observables.
    """
    from repro.analysis.scenarios import build_scenario, run_attack

    def scenario(seed: int) -> Dict[str, Number]:
        scenario_obj = build_scenario(
            config_factory(seed), interleaved_allocation=True
        )
        result = run_attack(scenario_obj, pattern, **attack_kwargs)
        stats = scenario_obj.system.controller.stats
        return {
            "cross_domain_flips": result.cross_domain_flips,
            "intra_domain_flips": result.intra_domain_flips,
            "hammer_iterations": result.hammer_iterations,
            "acts": stats.acts,
        }

    return scenario
