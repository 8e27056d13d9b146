"""Tests for the next-generation mitigations: PRAC per-row counters
(in-DRAM) and BreakHammer suspect throttling (in-MC wrapper)."""

import pytest

from repro.defenses import ParaDefense, VendorTrr
from repro.defenses.base import DefenseCost
from repro.defenses.breakhammer import (
    _SCORE_ENTRY_BITS,
    _SCORE_TABLE_ENTRIES,
    BreakHammerDefense,
)
from repro.defenses.prac import (
    _PRAC_COUNTER_BITS,
    _QUEUE_ENTRY_BITS,
    PracDefense,
)
from repro.sim import build_system

from tests.defenses.conftest import attack_with


class TestPrac:
    def test_stops_double_sided(self, legacy_config):
        _scenario, result = attack_with(legacy_config, [PracDefense()])
        assert result.cross_domain_flips == 0

    def test_stops_many_sided(self, legacy_config):
        _scenario, result = attack_with(
            legacy_config, [PracDefense()], pattern="many-sided", sides=8
        )
        assert result.cross_domain_flips == 0

    def test_stops_dma(self, legacy_config):
        _scenario, result = attack_with(
            legacy_config, [PracDefense()], use_dma=True
        )
        assert result.cross_domain_flips == 0

    def test_alerts_and_recoveries_fire(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [PracDefense()])
        counters = scenario.defenses[0].counters
        assert counters.get("alerts", 0) > 0
        assert counters.get("rows_recovered", 0) > 0
        assert counters.get("recoveries", 0) > 0

    def test_subarray_update_batching(self, legacy_config):
        """Counter maintenance is queued per subarray and flushed in
        batches, never one ACT at a time."""
        scenario, _result = attack_with(legacy_config, [PracDefense()])
        defense = scenario.defenses[0]
        flushes = defense.counters.get("update_batches_flushed", 0)
        acts = scenario.system.device.total_acts()
        assert 0 < flushes < acts

    def test_bank_level_recovery_isolation(self, legacy_config):
        """A double-sided attack hammers one bank; recovery must block
        that bank while sparing the others."""
        scenario, _result = attack_with(legacy_config, [PracDefense()])
        counters = scenario.defenses[0].counters
        assert counters.get("recovery_banks_blocked", 0) > 0
        assert counters.get("banks_spared", 0) > 0
        # per burst, blocked + spared = banks_total
        banks = scenario.system.geometry.banks_total
        bursts = counters["recoveries"]
        assert (
            counters["recovery_banks_blocked"] + counters["banks_spared"]
            == bursts * banks
        )

    def test_claims_the_device_hook(self, legacy_config):
        system = build_system(legacy_config)
        PracDefense().attach(system)
        # a second PRAC is refused by name before it reaches the hook
        with pytest.raises(ValueError):
            PracDefense().attach(system)
        with pytest.raises(RuntimeError):
            VendorTrr().attach(system)

    def test_cost_is_per_row(self, legacy_config):
        system = build_system(legacy_config)
        defense = PracDefense()
        defense.attach(system)
        geometry = system.geometry
        counter_bits = geometry.rows_total * _PRAC_COUNTER_BITS
        queue_bits = (
            geometry.banks_total * geometry.subarrays_per_bank
            * defense.batch_limit * _QUEUE_ENTRY_BITS
        )
        assert defense.cost().sram_bits == counter_bits + queue_bits

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PracDefense(threshold_margin=0.0)
        with pytest.raises(ValueError):
            PracDefense(threshold_margin=1.5)
        with pytest.raises(ValueError):
            PracDefense(batch_limit=0)
        with pytest.raises(ValueError):
            PracDefense(recovery_radius=0)

    def test_declares_mitigation_counters(self):
        assert "rows_recovered" in PracDefense.mitigation_counters


class TestBreakHammer:
    def test_stops_double_sided(self, legacy_config):
        _scenario, result = attack_with(legacy_config, [BreakHammerDefense()])
        assert result.cross_domain_flips == 0

    def test_stops_dma(self, legacy_config):
        _scenario, result = attack_with(
            legacy_config, [BreakHammerDefense()], use_dma=True
        )
        assert result.cross_domain_flips == 0

    def test_attack_starved_of_bandwidth(self, legacy_config):
        _plain, undefended = attack_with(legacy_config)
        scenario, defended = attack_with(legacy_config, [BreakHammerDefense()])
        assert defended.hammer_iterations < undefended.hammer_iterations
        counters = scenario.defenses[0].counters
        assert counters.get("throttled_acts", 0) > 0
        assert counters.get("suspected_domains", 0) >= 1

    def test_blames_the_dominant_domain(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [BreakHammerDefense()])
        defense = scenario.defenses[0]
        assert defense.counters.get("mitigations_attributed", 0) > 0
        assert defense.counters.get("peak_domains_tracked", 0) >= 1

    def test_default_base_is_prac_and_both_attach(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [BreakHammerDefense()])
        defense = scenario.defenses[0]
        assert defense.base.name == "prac"
        names = [d.name for d in scenario.system.defenses]
        assert "prac" in names and "breakhammer" in names

    def test_rejects_signal_free_base(self):
        """A base with no mitigation_counters gives BreakHammer nothing
        to score, and must be refused up front."""
        from repro.defenses import BlockHammerDefense

        with pytest.raises(ValueError):
            BreakHammerDefense(base=BlockHammerDefense())

    def test_rejects_attached_base(self, legacy_config):
        system = build_system(legacy_config)
        base = PracDefense()
        base.attach(system)
        with pytest.raises(RuntimeError):
            BreakHammerDefense(base=base).attach(system)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BreakHammerDefense(suspect_threshold=0)
        with pytest.raises(ValueError):
            BreakHammerDefense(trickle_fraction=0)

    def test_cost_wraps_base_cost(self, legacy_config):
        system = build_system(legacy_config)
        defense = BreakHammerDefense()
        defense.attach(system)
        base_cost = defense.base.cost()
        cost = defense.cost()
        assert cost.sram_bits == (
            base_cost.sram_bits + _SCORE_TABLE_ENTRIES * _SCORE_ENTRY_BITS
        )
        assert isinstance(cost, DefenseCost)

    def test_describe_names_the_base(self):
        row = BreakHammerDefense().describe()
        assert row["base"] == "prac"
