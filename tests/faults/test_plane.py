"""Unit tests for the fault plane's injectors and wiring."""

import dataclasses

import pytest

from repro.core.primitives import PrimitiveSet
from repro.dram.geometry import DdrAddress
from repro.faults import FaultConfig, FaultPlane
from repro.mc.counters import ActInterrupt
from repro.sim import build_system, legacy_platform


def make_system(fault=None, level="off", seed=7):
    config = legacy_platform(scale=64, seed=seed).with_primitives(
        PrimitiveSet.proposed()
    )
    config = dataclasses.replace(config, faults=fault, invariant_level=level)
    return build_system(config)


def make_interrupts(count):
    return [
        ActInterrupt(
            time_ns=100 * i, channel=i % 2, count_at_overflow=8,
            physical_line=i, from_dma=False,
        )
        for i in range(count)
    ]


class TestWiring:
    def test_system_builds_plane_only_when_enabled(self):
        assert make_system(fault=None).faults is None
        assert make_system(fault=FaultConfig()).faults is None  # inert
        system = make_system(fault=FaultConfig(drop_interrupt_rate=0.5))
        assert system.faults is not None

    def test_attach_installs_only_configured_injectors(self):
        system = make_system(fault=FaultConfig(drop_interrupt_rate=0.5))
        for counter in system.controller.counters.values():
            assert counter.delivery_filter is not None
            assert counter.read_filter is None
        assert system.controller.refresh_target_fault is None
        assert system.controller.batch_fault is None

    def test_attach_registers_metrics_group(self):
        system = make_system(fault=FaultConfig(corrupt_refresh_rate=1.0))
        snapshot = system.metrics_snapshot()
        assert snapshot["faults.refreshes_corrupted"] == 0
        assert system.controller.refresh_target_fault is not None

    def test_double_attach_rejected(self):
        system = make_system(fault=FaultConfig(drop_interrupt_rate=0.5))
        with pytest.raises(RuntimeError):
            system.faults.attach(system)


class TestDeterminism:
    def test_same_seeds_same_drop_pattern(self):
        config = FaultConfig(seed=21, drop_interrupt_rate=0.5)
        outcomes = []
        for _ in range(2):
            plane = FaultPlane(config, system_seed=9)
            outcomes.append([
                plane._filter_delivery(interrupt) is None
                for interrupt in make_interrupts(200)
            ])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_different_fault_seed_different_pattern(self):
        drops = []
        for seed in (21, 22):
            plane = FaultPlane(
                FaultConfig(seed=seed, drop_interrupt_rate=0.5),
                system_seed=9,
            )
            drops.append([
                plane._filter_delivery(interrupt) is None
                for interrupt in make_interrupts(200)
            ])
        assert drops[0] != drops[1]

    def test_injector_streams_independent(self):
        """Activating a second injector must not perturb the first's
        stream: each draws from its own RNG."""
        drop_only = FaultPlane(
            FaultConfig(seed=5, drop_interrupt_rate=0.5), system_seed=9
        )
        both = FaultPlane(
            FaultConfig(
                seed=5, drop_interrupt_rate=0.5, flip_count_read_rate=0.5
            ),
            system_seed=9,
        )
        pattern_a, pattern_b = [], []
        for interrupt in make_interrupts(100):
            pattern_a.append(drop_only._filter_delivery(interrupt) is None)
            both._filter_read(13)  # interleave reads on the other stream
            pattern_b.append(both._filter_delivery(interrupt) is None)
        assert pattern_a == pattern_b


class TestInjectors:
    def test_delay_pushes_time_forward(self):
        plane = FaultPlane(
            FaultConfig(
                seed=3, delay_interrupt_rate=1.0, delay_interrupt_ns=500
            ),
            system_seed=9,
        )
        (interrupt,) = make_interrupts(1)
        delayed = plane._filter_delivery(interrupt)
        assert delayed.time_ns == interrupt.time_ns + 500
        assert plane.counters["interrupts_delayed"] == 1

    def test_read_corruption_flips_configured_bit(self):
        plane = FaultPlane(
            FaultConfig(seed=3, flip_count_read_rate=1.0, flip_count_bit=2),
            system_seed=9,
        )
        assert plane._filter_read(0) == 4
        assert plane._filter_read(7) == 3
        assert plane.counters["reads_corrupted"] == 2

    def test_corrupt_refresh_lands_on_wrong_row_same_bank(self):
        system = make_system(
            fault=FaultConfig(seed=3, corrupt_refresh_rate=1.0)
        )
        plane = system.faults
        named = DdrAddress(0, 0, 1, 5, 0)
        for now in range(20):
            actual = plane._corrupt_refresh_target(named, now)
            assert actual.row != named.row
            assert 0 <= actual.row < system.geometry.rows_per_bank
            assert (actual.channel, actual.rank, actual.bank) == (0, 0, 1)
        assert plane.counters["refreshes_corrupted"] == 20

    def test_stall_every_nth_batch(self):
        plane = FaultPlane(
            FaultConfig(seed=3, stall_batch_every=3, stall_batch_ns=250),
            system_seed=9,
        )
        stalls = [plane._stall_batch(time_ns=i, size=4) for i in range(9)]
        assert stalls == [0, 0, 250, 0, 0, 250, 0, 0, 250]
        assert plane.counters["batches_stalled"] == 3

    def test_reconfig_storm_preserves_count_unless_forgiving(self):
        for forgiving in (False, True):
            system = make_system(
                fault=FaultConfig(
                    seed=3, reconfig_every_acts=1,
                    reconfig_forgives=forgiving,
                )
            )
            counter = system.controller.counters[0]
            counter.on_act(time_ns=10, physical_line=0, from_dma=False)
            counter.on_act(time_ns=20, physical_line=0, from_dma=False)
            assert counter.pending[0] == 2
            action = system.faults._on_act_reconfig(
                DdrAddress(0, 0, 0, 1, 0), 30, None, False
            )
            # the observer only decides; its action reconfigures
            assert system.faults.counters["reconfig_storms"] == 0
            action()
            expected = 0 if forgiving else 2
            assert counter.pending[0] == expected
            assert system.faults.counters["reconfig_storms"] == 1
