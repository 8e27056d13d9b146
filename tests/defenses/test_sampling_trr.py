"""Tests for the sampling-flavoured vendor TRR."""

import pytest

from repro.analysis.scenarios import build_scenario, run_attack
from repro.defenses import SamplingTrr, VendorTrr
from repro.sim import build_system, legacy_platform

from tests.defenses.conftest import attack_with


class TestMechanics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingTrr(sample_rate=0.0)
        with pytest.raises(ValueError):
            SamplingTrr(n_trackers=0)

    def test_samples_and_clears(self, legacy_config):
        from repro.dram.geometry import DdrAddress

        system = build_system(legacy_config)
        trr = SamplingTrr(sample_rate=1.0, n_trackers=2)
        trr.attach(system)
        trr.on_activate(DdrAddress(0, 0, 0, 5, 0), 0)
        targets = trr.targets_to_refresh(0)
        assert [(a.row, r) for a, r in targets] == [(5, 2)]
        assert trr.targets_to_refresh(1) == []  # table cleared

    def test_table_capacity(self, legacy_config):
        from repro.dram.geometry import DdrAddress

        system = build_system(legacy_config)
        trr = SamplingTrr(sample_rate=1.0, n_trackers=2)
        trr.attach(system)
        for row in range(5):
            trr.on_activate(DdrAddress(0, 0, 0, row, 0), row)
        assert len(trr.targets_to_refresh(0)) == 2
        assert trr.counters.get("samples_dropped_table_full", 0) == 3

    def test_exclusive_mitigation_slot(self, legacy_config):
        system = build_system(legacy_config)
        SamplingTrr().attach(system)
        # another in-DRAM mitigation finds the device's slot taken; a
        # second sampler is refused by name before it reaches the slot
        with pytest.raises(RuntimeError):
            VendorTrr().attach(system)
        with pytest.raises(ValueError):
            SamplingTrr().attach(system)


class TestScenario:
    def test_high_rate_stops_double_sided(self, legacy_config):
        scenario, result = attack_with(
            legacy_config, [SamplingTrr(sample_rate=0.5, n_trackers=4)]
        )
        assert result.cross_domain_flips == 0

    def test_dilution_bypass(self, legacy_config):
        """With a low sample rate and many aggressors, specific
        aggressors escape sampling long enough for victims to flip."""
        from repro.analysis.scenarios import build_scenario, run_attack

        scenario = build_scenario(
            legacy_config,
            defenses=[SamplingTrr(sample_rate=0.01, n_trackers=2)],
            interleaved_allocation=True,
            victim_pages=320, attacker_pages=320,
        )
        result = run_attack(scenario, "many-sided", sides=16)
        assert result.cross_domain_flips > 0
