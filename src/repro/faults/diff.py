"""Differential fault harness: the same workload with and without faults.

For one attack scenario (platform, defense, pattern, seed) the harness
runs a baseline cell, an undefended reference cell, and one cell per
fault scenario — all from the same seed, so the *only* difference
between cells is the injected fault — and classifies each faulted cell:

* ``graceful``          — the defense's guarantee (no cross-domain
  flips) still holds under the fault;
* ``violated-detected`` — the guarantee broke, and the invariant suite
  flagged the degradation (an auditor reading the report knows);
* ``violated-silent``   — the guarantee broke and nothing in the
  checked surface noticed: the dangerous quadrant §4.2's reliance on
  hardware reporting warns about.

The report is a plain JSON-native dict: ints, strings, and sorted
structures only, so a fixed spec serializes byte-identically across
runs (``python -m repro faults`` asserts on this in CI).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.faults.config import FaultConfig
from repro.faults.scenarios import default_matrix

#: classification labels, in report order
CLASSIFICATIONS = ("graceful", "violated-detected", "violated-silent")


@dataclass(frozen=True)
class DiffSpec:
    """One differential run: everything but the fault config."""

    platform: str = "legacy+primitives"
    defense: Optional[str] = "targeted-refresh"
    pattern: str = "double-sided"
    sides: int = 8
    scale: int = 64
    windows: float = 1.0
    seed: int = 1234
    invariant_level: str = "deep"

    def base_config(self, **overrides):
        """The platform config, with keyword overrides (a late import
        keeps this module light)."""
        from repro.sim.config import platform_config

        return platform_config(
            self.platform, scale=self.scale, seed=self.seed, **overrides
        )

    def armed_counter(self) -> Dict[str, int]:
        """Threshold/jitter the defense will arm (mirrors
        ``TargetedRefreshDefense._wire``), used to pace storm scenarios."""
        from repro.dram.presets import by_name

        config = self.base_config()
        mac = by_name(config.generation).scaled(config.scale).profile.mac
        threshold = max(2, int(mac * 0.125))
        return {"threshold": threshold, "jitter": int(threshold * 0.25)}


def run_cell(
    spec: DiffSpec,
    fault: Optional[FaultConfig] = None,
    defense: Optional[str] = "unset",
) -> Dict[str, object]:
    """Run one (spec, fault) cell and return its JSON-native record.

    ``defense`` overrides the spec's defense (pass ``None`` for an
    undefended reference cell)."""
    from repro.analysis.scenarios import build_scenario, run_attack_under_noise
    from repro.defenses.registry import build_overrides

    defense_name = spec.defense if defense == "unset" else defense
    defenses = [_make_defense(defense_name)] if defense_name else []
    # Allocator-policy defenses (bank partitioning, guard rows) refuse to
    # attach unless the system is built with their placement policy —
    # which is inherently non-interleaved.
    overrides = build_overrides(type(defenses[0]) if defenses else None)
    config = spec.base_config(
        faults=fault, invariant_level=spec.invariant_level, **overrides
    )
    interleaved = not overrides
    scenario = build_scenario(
        config, defenses=defenses, interleaved_allocation=interleaved
    )
    # Attack under benign noise via the cooperative engine: the victim's
    # traffic goes through the batch scheduler (so the stall injector has
    # a seam to hit) and the engine runs the invariant suite at every
    # flip-drain point, not just at the end.
    result, _ = run_attack_under_noise(
        scenario, spec.pattern, sides=spec.sides, windows=spec.windows,
        scheduler="fr-fcfs",
    )
    system = scenario.system
    suite = system.invariants
    if suite is not None:
        suite.check(result.finished_ns)
    counters = list(system.controller.counters.values())
    claims_guarantee = any(
        d.traits.stops_cross_domain for d in scenario.defenses
    )
    cell: Dict[str, object] = {
        "defense": defense_name,
        "plan_viable": bool(result.plan.viable),
        "hammer_iterations": result.hammer_iterations,
        "cross_domain_flips": result.cross_domain_flips,
        "intra_domain_flips": result.intra_domain_flips,
        "interrupts_raised": sum(c.interrupts_raised for c in counters),
        "interrupts_delivered": sum(c.interrupts_delivered for c in counters),
        "interrupts_lost": sum(c.interrupts_lost for c in counters),
        "handler_failures": sum(c.handler_failures for c in counters),
        "targeted_refreshes": system.controller.stats.targeted_refreshes,
        "neighbor_refresh_commands":
            system.controller.stats.neighbor_refresh_commands,
        "defense_counters": {
            d.name: dict(sorted(d.counters.items()))
            for d in scenario.defenses
        },
        "fault_injections": (
            dict(sorted(system.faults.counters.items()))
            if system.faults is not None else {}
        ),
        "invariant_checks": (
            suite.counters["checks"] if suite is not None else 0
        ),
        "invariant_violations": (
            [v.as_json_dict() for v in suite.violations]
            if suite is not None else []
        ),
        "claims_guarantee": claims_guarantee,
        "guarantee_holds": (
            claims_guarantee and result.cross_domain_flips == 0
        ),
    }
    return cell


def classify(cell: Dict[str, object]) -> str:
    """Place one faulted cell into the graceful/detected/silent taxonomy."""
    if not cell["claims_guarantee"]:
        return "no-guarantee"
    if cell["guarantee_holds"]:
        return "graceful"
    if cell["invariant_violations"]:
        return "violated-detected"
    return "violated-silent"


def run_matrix(
    spec: DiffSpec,
    scenarios: Optional[Dict[str, FaultConfig]] = None,
) -> Dict[str, object]:
    """Run the whole differential matrix; returns the report dict."""
    if scenarios is None:
        armed = spec.armed_counter()
        scenarios = default_matrix(armed["threshold"], armed["jitter"])
    baseline = run_cell(spec, fault=None)
    undefended = run_cell(spec, fault=None, defense=None)
    cells: Dict[str, Dict[str, object]] = {}
    summary: Dict[str, List[str]] = {label: [] for label in CLASSIFICATIONS}
    for name in sorted(scenarios):
        fault = scenarios[name]
        cell = run_cell(spec, fault=fault)
        cell["fault_config"] = fault.describe()
        label = classify(cell)
        cell["classification"] = label
        cells[name] = cell
        if label in summary:
            summary[label].append(name)
    return {
        "spec": asdict(spec),
        "baseline": baseline,
        "undefended": undefended,
        "scenarios": cells,
        "summary": summary,
    }


def render_report(report: Dict[str, object]) -> str:
    """Human-readable one-line-per-scenario view of a matrix report."""
    lines: List[str] = []
    spec = report["spec"]
    lines.append(
        f"differential fault matrix: {spec['defense']} on "
        f"{spec['platform']} ({spec['pattern']}, scale {spec['scale']}, "
        f"seed {spec['seed']})"
    )
    baseline = report["baseline"]
    undefended = report["undefended"]
    lines.append(
        f"  baseline:   cross-domain flips {baseline['cross_domain_flips']}, "
        f"guarantee holds: {baseline['guarantee_holds']}, "
        f"invariant violations: {len(baseline['invariant_violations'])}"
    )
    lines.append(
        f"  undefended: cross-domain flips {undefended['cross_domain_flips']} "
        f"(attack viability reference)"
    )
    width = max((len(name) for name in report["scenarios"]), default=0)
    for name, cell in report["scenarios"].items():
        violations = len(cell["invariant_violations"])
        lines.append(
            f"  {name:<{width}}  {cell['classification']:<17} "
            f"flips={cell['cross_domain_flips']:<3} "
            f"injections={sum(cell['fault_injections'].values()):<5} "
            f"violations={violations}"
        )
    summary = report["summary"]
    lines.append(
        "  summary: "
        + ", ".join(f"{label}: {len(summary[label])}" for label in summary)
    )
    return "\n".join(lines)


def report_to_json(report: Dict[str, object]) -> str:
    """Canonical serialization: same report → byte-identical text."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _make_defense(name: str):
    # Resolved from the defense registry (derived from ALL_DEFENSES),
    # not a hand-maintained map that goes stale as the zoo grows.
    from repro.defenses.registry import make_defense

    return make_defense(name)
