"""Unit tests for the invariant suite: a clean system passes, and each
checker catches the class of corruption it exists for."""

import dataclasses

import pytest

from repro.core.primitives import PrimitiveSet
from repro.faults import FaultConfig, InvariantSuite, InvariantViolationError
from repro.sim import build_system, legacy_platform


def make_system(fault=None, level="deep", seed=7):
    config = legacy_platform(scale=64, seed=seed).with_primitives(
        PrimitiveSet.proposed()
    )
    config = dataclasses.replace(config, faults=fault, invariant_level=level)
    return build_system(config)


def names(violations):
    return {violation.invariant for violation in violations}


class TestCleanSystem:
    def test_fresh_system_passes(self):
        system = make_system()
        assert system.invariants.check(0) == []
        assert system.invariants.ok

    def test_level_off_builds_no_suite(self):
        assert make_system(level="off").invariants is None

    def test_unknown_level_rejected(self):
        system = make_system(level="off")
        with pytest.raises(ValueError):
            InvariantSuite(system, level="paranoid")

    def test_counters_registered(self):
        system = make_system()
        system.invariants.check(0)
        snapshot = system.metrics_snapshot()
        assert snapshot["invariants.checks"] == 1
        assert snapshot["invariants.violations"] == 0


class TestCheapCheckers:
    def test_act_conservation_catches_drift(self):
        system = make_system()
        system.controller.stats.acts += 1
        assert "act_conservation" in names(system.invariants.check(5))

    def test_counter_pending_catches_negative_count(self):
        system = make_system()
        system.controller.counters[0]._count = -3
        assert "counter_pending" in names(system.invariants.check(5))

    def test_counter_pending_catches_overflow_point_beyond_threshold(self):
        system = make_system()
        counter = system.controller.counters[0]
        counter._next_overflow_at = counter.threshold + 1
        assert "counter_pending" in names(system.invariants.check(5))

    def test_mac_without_trip_caught(self):
        system = make_system()
        tracker = system.device.tracker
        tracker._pressure[(0, 0, 0, 4)] = float(system.profile.mac)
        assert "mac_flip_or_refresh" in names(system.invariants.check(5))

    def test_negative_pressure_caught(self):
        system = make_system()
        system.device.tracker._pressure[(0, 0, 0, 4)] = -1.0
        assert "mac_flip_or_refresh" in names(system.invariants.check(5))

    def test_pressure_at_mac_with_trip_logged_is_fine(self):
        system = make_system()
        tracker = system.device.tracker
        tracker._pressure[(0, 0, 0, 4)] = float(system.profile.mac)
        tracker._tripped[(0, 0, 0, 4)] = True
        assert system.invariants.check(5) == []


class TestDeepCheckers:
    def test_read_corruption_caught_at_deep_level(self):
        system = make_system(
            fault=FaultConfig(seed=3, flip_count_read_rate=1.0)
        )
        assert "counter_read_consistency" in names(system.invariants.check(5))

    def test_read_corruption_missed_at_cheap_level(self):
        system = make_system(
            fault=FaultConfig(seed=3, flip_count_read_rate=1.0),
            level="cheap",
        )
        assert system.invariants.check(5) == []

    def test_diverted_refresh_caught_by_efficacy_probe(self):
        system = make_system(
            fault=FaultConfig(seed=3, corrupt_refresh_rate=1.0)
        )
        domain = system.create_domain("victim", pages=4)
        line = domain.physical_line(0)
        address = system.mapper.line_to_ddr(line)
        bank_index = system.geometry.bank_index(address)
        internal = system.device.remapper.to_internal(bank_index, address.row)
        key = (address.channel, address.rank, address.bank, internal)
        system.device.tracker._pressure[key] = 3.0
        system.controller.refresh_line(line, now=100)
        assert "targeted_refresh_efficacy" in names(
            system.invariants.violations
        )

    def test_honest_refresh_satisfies_efficacy_probe(self):
        system = make_system()
        domain = system.create_domain("victim", pages=4)
        line = domain.physical_line(0)
        system.controller.refresh_line(line, now=100)
        assert system.invariants.ok


class TestRecording:
    def test_violations_deduplicated(self):
        system = make_system()
        system.controller.counters[0]._count = -3
        system.invariants.check(5)
        system.invariants.check(6)
        assert len(system.invariants.violations) == 1
        assert system.invariants.counters["violations"] == 1

    def test_strict_mode_raises(self):
        system = make_system(level="off")
        suite = InvariantSuite(system, level="cheap", strict=True)
        system.controller.stats.acts += 1
        with pytest.raises(InvariantViolationError):
            suite.check(5)
