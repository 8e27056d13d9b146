"""Invariant checkers: cheap always-on and deep opt-in assertions.

The simulator's claims are only as good as its bookkeeping, and the
fault plane exists precisely to knock that bookkeeping loose.  An
:class:`InvariantSuite` watches a built system for the contracts the
rest of the codebase relies on:

Cheap (``invariant_level="cheap"``) — polled at flip-drain points and at
run end, O(live state) each:

* ``act_conservation``     — the controller's ACT statistic equals what
  the per-channel counters saw plus the targeted refreshes that bypass
  them; trace events must agree when a counting sink is installed.
* ``interrupt_conservation`` — every raised interrupt was either
  delivered to the host or accounted lost by the delivery seam.
* ``counter_pending``      — each counter's in-flight count and drawn
  overflow point stay inside their architectural bounds (the class of
  bug the historical ``set_threshold`` reset belonged to).
* ``mac_flip_or_refresh``  — no victim row carries pressure at or above
  the MAC without the oracle having logged its flip-or-trip, and no
  pressure is ever negative.

Deep (``invariant_level="deep"``) adds inline probes wrapped around the
hot paths — more expensive, so opt-in:

* ``blast_radius_clamp``        — an ACT must not leak pressure across a
  subarray boundary even when the unclipped blast radius reaches over it.
* ``targeted_refresh_efficacy`` — after a ``refresh`` instruction the
  *named* row's pressure is gone (catches diverted refreshes).
* ``ref_neighbors_coverage``    — after REF_NEIGHBORS every internal
  neighbour within the radius is clean.
* ``counter_read_consistency``  — host-visible counter reads agree with
  the architectural count (catches read-path corruption).

Violations are recorded (deduplicated per invariant/detail), counted
under ``invariants.*`` in the system's metrics snapshot, emitted as
``invariant_violation`` trace events, and optionally raised
(``strict=True``) for tests that want the first failure loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.obs import events as _ev
from repro.obs.trace import CountingSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System

LEVELS = ("cheap", "deep")


@dataclass(frozen=True)
class Violation:
    """One recorded invariant breach."""

    invariant: str
    time_ns: int
    detail: str

    def as_json_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "time_ns": self.time_ns,
            "detail": self.detail,
        }


class InvariantViolationError(AssertionError):
    """Raised in strict mode on the first violation."""


class InvariantSuite:
    """All invariant checks of one simulated platform."""

    def __init__(
        self,
        system: "System",
        level: str = "cheap",
        strict: bool = False,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown invariant level {level!r}; known: {LEVELS}")
        self.system = system
        self.level = level
        self.strict = strict
        self.violations: List[Violation] = []
        self.counters: Dict[str, int] = {"checks": 0, "violations": 0}
        self._seen: Set[Tuple[str, str]] = set()
        if level == "deep":
            self._install_deep_probes()

    # ------------------------------------------------------------------
    # Polled checks (engine drain points, run end, tests)
    # ------------------------------------------------------------------

    def check(self, now: int) -> List[Violation]:
        """Run every polled check; returns violations new to this call."""
        self.counters["checks"] += 1
        before = len(self.violations)
        self._check_act_conservation(now)
        self._check_interrupt_conservation(now)
        self._check_counter_pending(now)
        self._check_mac_flip_or_refresh(now)
        if self.level == "deep":
            self._check_counter_read_consistency(now)
        return self.violations[before:]

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    # Cheap checks
    # ------------------------------------------------------------------

    def _check_act_conservation(self, now: int) -> None:
        controller = self.system.controller
        stats = controller.stats
        counted = sum(
            counter.total_acts for counter in controller.counters.values()
        )
        expected = counted + stats.targeted_refreshes
        if stats.acts != expected:
            self._record(
                "act_conservation", now,
                f"controller stats record {stats.acts} ACTs but the "
                f"channel counters saw {counted} plus "
                f"{stats.targeted_refreshes} targeted refreshes",
            )
        sink = self.system.trace.sink
        if isinstance(sink, CountingSink):
            traced = sink.count(_ev.ACT) + sink.count(_ev.TARGETED_REFRESH)
            if traced != stats.acts:
                self._record(
                    "act_conservation", now,
                    f"trace records {traced} ACT-path events but the "
                    f"controller counted {stats.acts}",
                )

    def _check_interrupt_conservation(self, now: int) -> None:
        for channel, counter in self.system.controller.counters.items():
            accounted = counter.interrupts_delivered + counter.interrupts_lost
            if counter.interrupts_raised != accounted:
                self._record(
                    "interrupt_conservation", now,
                    f"channel {channel} raised {counter.interrupts_raised} "
                    f"interrupts but delivered+lost is {accounted}",
                )

    def _check_counter_pending(self, now: int) -> None:
        for channel, counter in self.system.controller.counters.items():
            count, next_at = counter.pending
            if not 0 <= count <= counter.total_acts:
                self._record(
                    "counter_pending", now,
                    f"channel {channel} pending count {count} is outside "
                    f"[0, total_acts={counter.total_acts}]",
                )
            if not 1 <= next_at <= counter.threshold:
                self._record(
                    "counter_pending", now,
                    f"channel {channel} overflow point {next_at} is outside "
                    f"[1, threshold={counter.threshold}]",
                )

    def _check_mac_flip_or_refresh(self, now: int) -> None:
        tracker = self.system.device.tracker
        mac = self.system.profile.mac
        for row_key, pressure in tracker.iter_pressure():
            if pressure < 0.0:
                self._record(
                    "mac_flip_or_refresh", now,
                    f"row {row_key} carries negative pressure {pressure}",
                )
            elif pressure >= mac and not tracker.is_tripped(row_key):
                self._record(
                    "mac_flip_or_refresh", now,
                    f"row {row_key} reached pressure {pressure:.1f} >= "
                    f"MAC {mac} with no flip or refresh logged",
                )

    # ------------------------------------------------------------------
    # Deep checks
    # ------------------------------------------------------------------

    def _check_counter_read_consistency(self, now: int) -> None:
        for channel, counter in self.system.controller.counters.items():
            architectural = counter.pending[0]
            observed = counter.read_count()
            if observed != architectural:
                self._record(
                    "counter_read_consistency", now,
                    f"channel {channel} read path returns corrupted counts",
                )

    def _install_deep_probes(self) -> None:
        """Wrap the hot paths with inline assertions.  Installed once at
        construction; each wrapper delegates to the original so results
        are identical — only checks are added."""
        system = self.system
        tracker = system.device.tracker
        geometry = system.geometry
        profile = system.profile
        device = system.device
        controller = system.controller
        remapper = device.remapper
        suite = self

        original_on_activate = tracker.on_activate

        def checked_on_activate(address, time_ns, domain=None):
            # Snapshot every row the *unclipped* blast radius reaches in
            # adjacent subarrays; none of them may gain pressure.
            row = address.row
            rows_per_subarray = geometry.rows_per_subarray
            subarray = row // rows_per_subarray
            outside = []
            low = max(0, row - profile.blast_radius)
            high = min(geometry.rows_per_bank - 1, row + profile.blast_radius)
            for victim_row in range(low, high + 1):
                if victim_row // rows_per_subarray != subarray:
                    key = (address.channel, address.rank, address.bank,
                           victim_row)
                    outside.append((key, tracker.pressure_of(key)))
            flips = original_on_activate(address, time_ns, domain)
            for key, pressure_before in outside:
                if tracker.pressure_of(key) > pressure_before:
                    suite._record(
                        "blast_radius_clamp", time_ns,
                        f"ACT of row {row} leaked pressure across the "
                        f"subarray boundary into row {key}",
                    )
            return flips

        tracker.on_activate = checked_on_activate  # type: ignore[method-assign]

        original_refresh_line = controller.refresh_line

        def checked_refresh_line(physical_line, now, auto_precharge=True):
            ready = original_refresh_line(physical_line, now, auto_precharge)
            address = controller.mapper.line_to_ddr(physical_line)
            bank_index = geometry.bank_index(address)
            internal = remapper.to_internal(bank_index, address.row)
            key = (address.channel, address.rank, address.bank, internal)
            if tracker.pressure_of(key) != 0.0 or tracker.is_tripped(key):
                suite._record(
                    "targeted_refresh_efficacy", now,
                    f"refresh of line {physical_line} left pressure "
                    f"{tracker.pressure_of(key):.1f} on named row {key}",
                )
            return ready

        controller.refresh_line = checked_refresh_line  # type: ignore[method-assign]

        original_ref_neighbors = device.ref_neighbors

        def checked_ref_neighbors(address, blast_radius, now):
            done = original_ref_neighbors(address, blast_radius, now)
            bank_index = geometry.bank_index(address)
            internal = remapper.to_internal(bank_index, address.row)
            for victim_row in geometry.neighbors_within(internal, blast_radius):
                key = (address.channel, address.rank, address.bank, victim_row)
                if tracker.pressure_of(key) != 0.0:
                    suite._record(
                        "ref_neighbors_coverage", now,
                        f"REF_NEIGHBORS around internal row {internal} left "
                        f"pressure on neighbour {key}",
                    )
            return done

        device.ref_neighbors = checked_ref_neighbors  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record(self, invariant: str, now: int, detail: str) -> None:
        key = (invariant, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        violation = Violation(invariant=invariant, time_ns=now, detail=detail)
        self.violations.append(violation)
        self.counters["violations"] += 1
        trace = self.system.trace
        if trace.enabled:
            trace.emit(
                _ev.INVARIANT_VIOLATION, now,
                invariant=invariant, detail=detail,
            )
        if self.strict:
            raise InvariantViolationError(
                f"{invariant} violated at t={now}ns: {detail}"
            )
