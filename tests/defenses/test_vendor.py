"""Unit and scenario tests for the blackbox in-DRAM TRR model."""

import pytest

from repro.defenses.vendor import SamplingTrr, VendorTrr
from repro.dram.geometry import DdrAddress

from tests.defenses.conftest import attack_with


class TestTrackerMechanics:
    def test_counts_tracked_rows(self):
        trr = VendorTrr(n_trackers=2, trigger=3)
        address = DdrAddress(0, 0, 0, 5, 0)
        for t in range(3):
            trr.on_activate(address, t)
        targets = trr.targets_to_refresh(100)
        assert [(a.row, radius) for a, radius in targets] == [(5, 2)]

    def test_below_trigger_not_refreshed(self):
        trr = VendorTrr(n_trackers=2, trigger=5)
        address = DdrAddress(0, 0, 0, 5, 0)
        for t in range(4):
            trr.on_activate(address, t)
        assert trr.targets_to_refresh(100) == []

    def test_misra_gries_churn_with_excess_rows(self):
        """Round-robin over more rows than trackers keeps every count
        below the trigger — the TRRespass bypass mechanism."""
        trr = VendorTrr(n_trackers=2, trigger=3)
        rows = [DdrAddress(0, 0, 0, r, 0) for r in (1, 3, 5, 7)]
        for t in range(40):
            trr.on_activate(rows[t % 4], t)
        assert trr.targets_to_refresh(100) == []
        assert trr.counters.get("tracker_churn", 0) > 0

    def test_per_bank_tables(self):
        trr = VendorTrr(n_trackers=1, trigger=2)
        bank0 = DdrAddress(0, 0, 0, 5, 0)
        bank1 = DdrAddress(0, 0, 1, 7, 0)
        for t in range(2):
            trr.on_activate(bank0, t)
            trr.on_activate(bank1, t)
        targets = {a.bank_key() for a, _r in trr.targets_to_refresh(0)}
        assert targets == {(0, 0, 0), (0, 0, 1)}

    def test_validation(self):
        with pytest.raises(ValueError):
            VendorTrr(n_trackers=0)
        with pytest.raises(ValueError):
            VendorTrr(refresh_radius=0)
        with pytest.raises(ValueError):
            VendorTrr(trigger=0)


class TestScenario:
    def test_stops_few_sided_attack(self, legacy_config):
        scenario, result = attack_with(
            legacy_config, [VendorTrr(n_trackers=4, refresh_radius=2)],
            pattern="many-sided", sides=2,
        )
        assert result.cross_domain_flips == 0

    def test_bypassed_by_many_sided(self, legacy_config):
        from repro.analysis.scenarios import build_scenario, run_attack

        scenario = build_scenario(
            legacy_config,
            defenses=[VendorTrr(n_trackers=4, refresh_radius=2)],
            interleaved_allocation=True,
            victim_pages=320, attacker_pages=320,
        )
        result = run_attack(scenario, "many-sided", sides=12)
        assert result.cross_domain_flips > 0

    def test_only_one_mitigation_per_module(self, legacy_config):
        from repro.sim import build_system

        system = build_system(legacy_config)
        VendorTrr().attach(system)
        # another in-DRAM mitigation finds the module's slot taken; a
        # second TRR is refused by name before it reaches the slot
        with pytest.raises(RuntimeError):
            SamplingTrr().attach(system)
        with pytest.raises(ValueError):
            VendorTrr().attach(system)

    def test_cost_scales_with_trackers(self, legacy_config):
        from repro.sim import build_system

        system = build_system(legacy_config)
        trr = VendorTrr(n_trackers=8)
        trr.attach(system)
        assert trr.cost().sram_bits == 8 * 32 * system.geometry.banks_total
