"""Tests for attack planning."""

import pytest

from repro.analysis.scenarios import build_scenario
from repro.attacks import AttackPlan, AttackPlanner
from repro.core.primitives import PrimitiveSet
from repro.mc.address_map import MAPPING_SCHEMES
from repro.sim import legacy_platform, proposed_platform


@pytest.fixture
def interleaved_scenario():
    return build_scenario(
        legacy_platform(scale=64), interleaved_allocation=True,
        victim_pages=320, attacker_pages=320,
    )


@pytest.fixture
def contiguous_scenario():
    return build_scenario(legacy_platform(scale=64))


class TestPlanShapes:
    def test_double_sided_sandwich(self, interleaved_scenario):
        planner = AttackPlanner(
            interleaved_scenario.system, interleaved_scenario.attacker
        )
        plan = planner.plan(interleaved_scenario.victim, "double-sided")
        assert plan.viable
        assert plan.sides == 2
        rows = [
            interleaved_scenario.system.mapper.line_to_ddr(
                interleaved_scenario.attacker.physical_line(line)
            ).row_key()
            for line in plan.aggressor_lines
        ]
        assert rows[0][:3] == rows[1][:3]  # same bank (forces conflicts)

    def test_single_sided_gets_conflict_row(self, contiguous_scenario):
        planner = AttackPlanner(
            contiguous_scenario.system, contiguous_scenario.attacker
        )
        plan = planner.plan(contiguous_scenario.victim, "single-sided")
        # one aggressor + one far dummy to force bank conflicts (§2.1)
        assert plan.sides == 2

    def test_many_sided_counts(self, interleaved_scenario):
        planner = AttackPlanner(
            interleaved_scenario.system, interleaved_scenario.attacker
        )
        plan = planner.plan(interleaved_scenario.victim, "many-sided", sides=8)
        assert plan.sides == 8

    def test_comb_spacing_respected(self, interleaved_scenario):
        planner = AttackPlanner(
            interleaved_scenario.system, interleaved_scenario.attacker
        )
        for spacing in (2, 4):
            plan = planner.plan(
                interleaved_scenario.victim, "many-sided", sides=6,
                spacing=spacing,
            )
            rows = sorted(
                interleaved_scenario.system.mapper.line_to_ddr(
                    interleaved_scenario.attacker.physical_line(line)
                ).row_key()[3]
                for line in plan.aggressor_lines
            )
            gaps = [b - a for a, b in zip(rows, rows[1:])]
            assert all(gap >= spacing for gap in gaps)

    def test_victims_exclude_hammered_rows(self, interleaved_scenario):
        planner = AttackPlanner(
            interleaved_scenario.system, interleaved_scenario.attacker
        )
        plan = planner.plan(interleaved_scenario.victim, "many-sided", sides=8)
        hammered = {
            interleaved_scenario.system.mapper.line_to_ddr(
                interleaved_scenario.attacker.physical_line(line)
            ).row_key()
            for line in plan.aggressor_lines
        }
        assert hammered.isdisjoint(plan.expected_victim_rows)

    def test_unknown_pattern(self, contiguous_scenario):
        planner = AttackPlanner(
            contiguous_scenario.system, contiguous_scenario.attacker
        )
        with pytest.raises(ValueError):
            planner.plan(contiguous_scenario.victim, "zigzag")


def _per_line_row_index(system, attacker):
    """The row index as the planner once built it: every attacker line
    through the TLB and the ``line_to_ddr`` memo, the first line per
    row kept."""
    line_by_row = {}
    for virtual_line in range(attacker.pages * attacker.lines_per_page):
        physical = attacker.physical_line(virtual_line)
        row = system.mapper.line_to_ddr(physical).row_key()
        line_by_row.setdefault(row, virtual_line)
    return line_by_row


class TestAttackerRowIndex:
    @pytest.mark.parametrize("scheme", sorted(MAPPING_SCHEMES))
    def test_matches_the_per_line_walk_and_leaves_caches_alone(self, scheme):
        config = (
            legacy_platform(scale=64)
            .with_primitives(PrimitiveSet.proposed())
            .with_mapping(scheme)
        )
        scenario = build_scenario(
            config, interleaved_allocation=True,
            victim_pages=40, attacker_pages=40,
        )
        system, attacker = scenario.system, scenario.attacker
        # a page moved after allocation: the page table, not the
        # handle's frame list, says where it lives
        [spare] = system.allocator.allocate(attacker.asid, 1)
        system.mmu.remap_page(attacker.asid, 3, spare)
        for virtual_line in (0, 70, 200):
            system.core.load(attacker.asid, virtual_line, 0)
        tlb = system.mmu.tlb
        before = (list(tlb._entries.items()), tlb.hits, tlb.misses,
                  tlb.evictions)
        memo = system.mapper.memo_counters()

        planner = AttackPlanner(system, attacker)

        assert (list(tlb._entries.items()), tlb.hits, tlb.misses,
                tlb.evictions) == before
        assert system.mapper.memo_counters() == memo
        assert list(planner._line_by_row.items()) == list(
            _per_line_row_index(system, attacker).items()
        )


class TestIsolationDeniesPlans:
    def test_no_viable_plan_under_subarray_isolation(self):
        scenario = build_scenario(proposed_platform(scale=64))
        planner = AttackPlanner(scenario.system, scenario.attacker)
        for pattern in ("single-sided", "double-sided", "many-sided"):
            plan = planner.plan(scenario.victim, pattern)
            assert not plan.viable

    def test_reachable_victim_rows_empty(self):
        scenario = build_scenario(proposed_platform(scale=64))
        planner = AttackPlanner(scenario.system, scenario.attacker)
        assert planner.reachable_victim_rows(scenario.victim) == set()

    def test_reachable_nonempty_on_legacy(self, contiguous_scenario):
        planner = AttackPlanner(
            contiguous_scenario.system, contiguous_scenario.attacker
        )
        assert planner.reachable_victim_rows(contiguous_scenario.victim)


class TestIntraDomain:
    def test_intra_plan_targets_own_rows(self, contiguous_scenario):
        planner = AttackPlanner(
            contiguous_scenario.system, contiguous_scenario.attacker
        )
        plan = planner.plan_intra_domain("double-sided")
        assert plan.viable
        attacker_rows = contiguous_scenario.attacker.rows()
        assert set(plan.expected_victim_rows) <= attacker_rows


class TestHalfDouble:
    def test_plan_shape(self, interleaved_scenario):
        planner = AttackPlanner(
            interleaved_scenario.system, interleaved_scenario.attacker
        )
        plan = planner.plan(interleaved_scenario.victim, "half-double")
        assert plan.viable
        assert plan.sides == 4
        assert plan.weights == (8, 8, 1, 1)
        # the victim row is at distance 2 from the heavy aggressors
        system = interleaved_scenario.system
        (victim,) = plan.expected_victim_rows
        far_rows = [
            system.mapper.line_to_ddr(
                interleaved_scenario.attacker.physical_line(line)
            ).row_key()[3]
            for line in plan.aggressor_lines[:2]
        ]
        assert {abs(victim[3] - row) for row in far_rows} == {2}

    def test_defeats_radius_one_trr(self):
        from repro.analysis.scenarios import build_scenario, run_attack
        from repro.defenses import VendorTrr

        scenario = build_scenario(
            legacy_platform(scale=64),
            defenses=[VendorTrr(n_trackers=8, refresh_radius=1)],
            interleaved_allocation=True,
        )
        result = run_attack(scenario, "half-double")
        assert result.cross_domain_flips > 0

    def test_stopped_by_radius_two_trr(self):
        from repro.analysis.scenarios import build_scenario, run_attack
        from repro.defenses import VendorTrr

        scenario = build_scenario(
            legacy_platform(scale=64),
            defenses=[VendorTrr(n_trackers=8, refresh_radius=2)],
            interleaved_allocation=True,
        )
        result = run_attack(scenario, "half-double")
        assert result.cross_domain_flips == 0

    def test_nonviable_on_radius_one_module(self):
        from repro.analysis.scenarios import build_scenario

        scenario = build_scenario(
            legacy_platform(scale=64, generation="ddr3-new"),
            interleaved_allocation=True,
        )
        planner = AttackPlanner(scenario.system, scenario.attacker)
        plan = planner.plan(scenario.victim, "half-double")
        assert not plan.viable  # blast radius 1: nothing to exploit
