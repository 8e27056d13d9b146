"""Fault injection, invariant checking, and the differential harness.

The paper's §4 primitives make system software depend on hardware
*reporting* faithfully: interrupts that arrive, refreshes that land
where software aimed, counters that read back what they counted.  This
package stresses exactly those promises:

* :mod:`repro.faults.config`     — :class:`FaultConfig`, the declarative
  description of one degraded-hardware scenario (plugs into
  :class:`~repro.sim.config.SystemConfig` via the ``faults`` field);
* :mod:`repro.faults.plane`      — :class:`FaultPlane`, the seed-driven
  injectors wired into a built system;
* :mod:`repro.faults.invariants` — :class:`InvariantSuite`, cheap
  always-on and deep opt-in assertions over the simulator's bookkeeping
  (``invariant_level`` in the system config);
* :mod:`repro.faults.scenarios`  — the named scenario matrix;
* :mod:`repro.faults.diff`       — the differential harness behind
  ``python -m repro faults``: same workload with/without each fault,
  classifying defenses as degrading gracefully vs violating their
  guarantee silently;
* :mod:`repro.faults.crash`      — :class:`CrashingSpec`, harness-level
  fault injection that kills/hangs replication *workers* on chosen
  seeds to exercise every :mod:`repro.runtime` recovery branch.
"""

from repro.faults.config import FaultConfig
from repro.faults.crash import (
    CRASH_EXIT_STATUS,
    CRASH_MODES,
    CrashingSpec,
    InjectedWorkerError,
)
from repro.faults.invariants import (
    InvariantSuite,
    InvariantViolationError,
    Violation,
)
from repro.faults.plane import FaultPlane
from repro.faults.scenarios import default_matrix, storm_interval

__all__ = [
    "CRASH_EXIT_STATUS",
    "CRASH_MODES",
    "CrashingSpec",
    "FaultConfig",
    "FaultPlane",
    "InjectedWorkerError",
    "InvariantSuite",
    "InvariantViolationError",
    "Violation",
    "default_matrix",
    "storm_interval",
]
