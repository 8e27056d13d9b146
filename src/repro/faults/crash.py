"""Harness-level fault injection: kill the *worker*, not the simulation.

PR 3's fault plane audits the simulated hardware; :class:`CrashingSpec`
audits the harness that runs it.  It wraps any picklable replication
spec and, on chosen seeds, makes the worker die (``os._exit``), raise,
or hang — exactly the failures the :mod:`repro.runtime` supervisor must
recover from (``BrokenProcessPool`` respawn, bounded retry, per-task
timeout).

With a ``marker_dir`` the crash fires only on the *first* attempt of
each chosen seed: the spec drops a marker file before dying, so the
supervisor's retry finds the marker and runs the seed normally.  That
makes every recovery branch deterministic to exercise end-to-end —
campaign output after recovery must be bit-identical to a run that
never crashed.  Without a ``marker_dir`` the seed fails every attempt,
which is how retry exhaustion and permanent-failure reporting are
tested.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Tuple

from repro.analysis.stats import Number, ScenarioFn

#: exit status a killed worker dies with (visible in pool diagnostics)
CRASH_EXIT_STATUS = 86

#: supported failure modes
CRASH_MODES = ("kill", "raise", "hang")


class InjectedWorkerError(RuntimeError):
    """The in-process failure :class:`CrashingSpec` raises in ``raise``
    mode (distinct from any real scenario error)."""


@dataclass(frozen=True)
class CrashingSpec:
    """Picklable wrapper that sabotages chosen seeds.

    ``mode``:

    * ``"kill"``  — ``os._exit`` the worker process (breaks the whole
      pool; in a serial path this kills the campaign, which is what the
      SIGKILL-and-resume CI smoke covers instead);
    * ``"raise"`` — raise :class:`InjectedWorkerError` (pool survives;
      exercises plain retry);
    * ``"hang"``  — sleep ``hang_s`` before continuing (exercises the
      per-task timeout).
    """

    #: results depend on wall-clock hangs and marker-file state, not
    #: just (spec, seed) — and a cached result would skip the crash the
    #: harness test exists to provoke — so never serve this from cache
    cacheable = False

    spec: ScenarioFn
    crash_seeds: Tuple[int, ...] = ()
    mode: str = "kill"
    #: when set, each chosen seed crashes only on its first attempt
    marker_dir: Optional[str] = None
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"mode must be one of {CRASH_MODES}, got {self.mode!r}"
            )

    def __call__(self, seed: int) -> Mapping[str, Number]:
        if seed in self.crash_seeds and self._arm(seed):
            if self.mode == "kill":
                os._exit(CRASH_EXIT_STATUS)
            if self.mode == "raise":
                raise InjectedWorkerError(
                    f"injected crash on seed {seed}"
                )
            time.sleep(self.hang_s)
        return self.spec(seed)

    def _arm(self, seed: int) -> bool:
        """Should this attempt crash?  Drops a marker first so the next
        attempt (in any process) runs clean."""
        if self.marker_dir is None:
            return True
        marker = Path(self.marker_dir) / f"seed-{seed}.crashed"
        if marker.exists():
            return False
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
        return True
