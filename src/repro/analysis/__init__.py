"""Experiment harness: scenario builders, the E1–E13 experiment suite,
and ASCII table/series rendering."""

from repro.analysis.ablations import ABLATIONS
from repro.analysis.validation import VALIDATIONS, run_v1, run_v2
from repro.analysis.stats import (
    Aggregate,
    aggregate,
    merge_replications,
    replicate,
)
from repro.analysis.parallel import (
    AttackReplicationSpec,
    BenignReplicationSpec,
    EvasionReplicationSpec,
)
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentOutcome,
    run_e1,
    run_e2,
    run_e3,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e9,
    run_e10,
    run_e11,
    run_e12,
    run_e13,
    run_e14,
    run_e15,
)
from repro.analysis.scenarios import (
    Scenario,
    build_scenario,
    run_attack,
    run_attack_under_noise,
    run_benign,
)
from repro.analysis.tables import Table, render_series

__all__ = [
    "ABLATIONS",
    "VALIDATIONS",
    "run_v1",
    "run_v2",
    "EXPERIMENTS",
    "Aggregate",
    "aggregate",
    "merge_replications",
    "replicate",
    "AttackReplicationSpec",
    "BenignReplicationSpec",
    "EvasionReplicationSpec",
    "ExperimentOutcome",
    "Scenario",
    "Table",
    "build_scenario",
    "render_series",
    "run_attack",
    "run_attack_under_noise",
    "run_benign",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
    "run_e13",
    "run_e14",
    "run_e15",
]
