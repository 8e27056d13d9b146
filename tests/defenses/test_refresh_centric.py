"""Tests for refresh-centric defenses: targeted refresh (the paper's),
ANVIL, PARA, Graphene, TWiCe."""

import pytest

from repro.core.primitives import MissingPrimitiveError, PrimitiveSet
from repro.defenses.refresh_centric import (
    AnvilDefense,
    GrapheneDefense,
    ParaDefense,
    TargetedRefreshDefense,
    TwiceDefense,
)
from repro.sim import build_system, legacy_platform

from tests.defenses.conftest import attack_with


class TestTargetedRefresh:
    def test_requires_primitives(self, legacy_config):
        system = build_system(legacy_config)
        with pytest.raises(MissingPrimitiveError):
            TargetedRefreshDefense().attach(system)

    def test_stops_core_attack(self, primitives_config):
        scenario, result = attack_with(
            primitives_config, [TargetedRefreshDefense()]
        )
        assert result.cross_domain_flips == 0

    def test_stops_dma_attack(self, primitives_config):
        scenario, result = attack_with(
            primitives_config, [TargetedRefreshDefense()], use_dma=True
        )
        assert result.cross_domain_flips == 0

    def test_issues_refresh_instructions(self, primitives_config):
        scenario, _result = attack_with(
            primitives_config, [TargetedRefreshDefense()]
        )
        defense = scenario.defenses[0]
        assert defense.counters.get("victim_refreshes", 0) > 0
        assert scenario.system.controller.stats.targeted_refreshes > 0

    def test_uses_ref_neighbors_when_available(self):
        config = legacy_platform(scale=64).with_primitives(PrimitiveSet.ideal())
        scenario, result = attack_with(config, [TargetedRefreshDefense()])
        defense = scenario.defenses[0]
        assert result.cross_domain_flips == 0
        assert defense.counters.get("ref_neighbors_issued", 0) > 0
        assert defense.counters.get("victim_refreshes", 0) == 0

    def test_radius_defaults_to_blast_radius(self, primitives_config):
        system = build_system(primitives_config)
        defense = TargetedRefreshDefense()
        defense.attach(system)
        assert defense.radius == system.profile.blast_radius


class TestAnvil:
    def test_deployable_today(self, legacy_config):
        system = build_system(legacy_config)
        AnvilDefense().attach(system)  # no primitives required

    def test_stops_core_attack(self, legacy_config):
        scenario, result = attack_with(legacy_config, [AnvilDefense()])
        assert result.cross_domain_flips == 0

    def test_blind_to_dma(self, legacy_config):
        """§1: DMA-induced ACTs never reach core performance counters."""
        scenario, result = attack_with(
            legacy_config, [AnvilDefense()], use_dma=True
        )
        assert result.cross_domain_flips > 0
        defense = scenario.defenses[0]
        assert defense.counters.get("suspicions", 0) == 0

    def test_refreshes_via_loads(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [AnvilDefense()])
        defense = scenario.defenses[0]
        assert defense.counters.get("effective_refreshes", 0) > 0


class TestPara:
    def test_stops_attack_with_enough_probability(self, legacy_config):
        # The probability must suit the (scaled) MAC: gaps between
        # refreshes of a victim are geometric, and the tail must stay
        # below MAC/2 aggressor pairs.  At scaled MAC 156 that needs a
        # much larger p than production PARA would use at MAC 10k.
        scenario, result = attack_with(
            legacy_config,
            [ParaDefense(probability=0.2, refresh_radius=2)],
        )
        assert result.cross_domain_flips == 0

    def test_radius_one_leaks_on_radius_two_module(self, legacy_config):
        """A PARA built for blast radius 1 cannot protect distance-2
        victims (ddr4-new has blast radius 2) — §3's scaling argument."""
        scenario, result = attack_with(
            legacy_config,
            [ParaDefense(probability=0.05, refresh_radius=1)],
            pattern="many-sided", sides=8, spacing=4,
        )
        assert result.cross_domain_flips > 0

    def test_refreshes_cost_acts(self, legacy_config):
        scenario, _result = attack_with(
            legacy_config, [ParaDefense(probability=0.05, refresh_radius=2)]
        )
        defense = scenario.defenses[0]
        assert defense.counters.get("neighbor_refreshes", 0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParaDefense(probability=0.0)
        with pytest.raises(ValueError):
            ParaDefense(refresh_radius=0)

    def test_duplicate_name_is_rejected_before_wiring(self, legacy_config):
        """A second PARA on one system raises before it hooks the
        controller: one observer stays, and the rejected instance is
        not attached."""
        system = build_system(legacy_config)
        first = ParaDefense()
        first.attach(system)
        observers = list(system.controller._act_observers)
        assert len(observers) == 1
        rejected = ParaDefense()
        with pytest.raises(ValueError):
            rejected.attach(system)
        assert system.controller._act_observers == observers
        assert rejected.attached is False
        assert rejected.system is None
        assert system.defenses == [first]


class TestGraphene:
    def test_stops_attack_when_sized(self, legacy_config):
        scenario, result = attack_with(legacy_config, [GrapheneDefense()])
        assert result.cross_domain_flips == 0

    def test_undersized_table_leaks(self, legacy_config):
        """A table built for an older generation cannot track enough
        aggressors on a denser module (E5's capacity argument)."""
        from repro.analysis.scenarios import build_scenario, run_attack

        scenario = build_scenario(
            legacy_config,
            defenses=[GrapheneDefense(table_entries=2)],
            interleaved_allocation=True,
            victim_pages=320, attacker_pages=320,
        )
        result = run_attack(scenario, "many-sided", sides=12)
        assert result.cross_domain_flips > 0

    def test_required_entries_grow_with_density(self):
        sparse = build_system(legacy_platform(scale=1, generation="ddr3-old"))
        dense = build_system(legacy_platform(scale=1, generation="lpddr4"))
        defense = GrapheneDefense()
        assert defense.required_entries(dense) > defense.required_entries(sparse)

    def test_cost_reports_table(self, legacy_config):
        system = build_system(legacy_config)
        defense = GrapheneDefense(table_entries=100)
        defense.attach(system)
        assert defense.cost().sram_bits == 100 * 36 * system.geometry.banks_total


class TestTwice:
    def test_stops_attack(self, legacy_config):
        scenario, result = attack_with(legacy_config, [TwiceDefense()])
        assert result.cross_domain_flips == 0

    def test_prunes_idle_rows(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [TwiceDefense()])
        defense = scenario.defenses[0]
        assert defense.counters.get("prunes", 0) > 0

    def test_peak_occupancy_reported(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [TwiceDefense()])
        defense = scenario.defenses[0]
        assert defense.cost().sram_bits > 0
