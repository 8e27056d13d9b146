"""Tests for system configuration presets."""

import pytest

from repro.core.primitives import Primitive, PrimitiveSet
from repro.hostos.allocator import AllocationPolicy
from repro.sim import (
    PLATFORMS,
    SystemConfig,
    ideal_platform,
    legacy_platform,
    platform_config,
    proposed_platform,
)


class TestValidation:
    def test_scale_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(scale=0)

    def test_remap_fraction_range(self):
        with pytest.raises(ValueError):
            SystemConfig(remap_fraction=1.5)

    def test_page_bytes_minimum(self):
        with pytest.raises(ValueError):
            SystemConfig(page_bytes=32)


class TestPlatforms:
    def test_legacy_has_no_primitives(self):
        config = legacy_platform()
        assert config.primitives.available == frozenset()
        assert config.mapping == "cacheline-interleave"
        assert not config.precise_act_interrupts

    def test_proposed_is_the_paper(self):
        config = proposed_platform()
        assert config.mapping == "subarray-isolated"
        assert config.allocation_policy is AllocationPolicy.SUBARRAY_AWARE
        assert config.precise_act_interrupts
        assert config.primitives.has(Primitive.REFRESH_INSTRUCTION)
        assert not config.primitives.has(Primitive.REF_NEIGHBORS_COMMAND)

    def test_ideal_adds_dram_cooperation(self):
        config = ideal_platform()
        assert config.primitives.has(Primitive.REF_NEIGHBORS_COMMAND)
        assert config.primitives.has(Primitive.SUBARRAY_MAP_DISCLOSURE)

    def test_platform_overrides(self):
        config = proposed_platform(scale=8, seed=99)
        assert config.scale == 8
        assert config.seed == 99

    def test_platform_config_resolves_every_name(self):
        expected = {
            "legacy": legacy_platform(scale=8),
            "legacy+primitives": legacy_platform(scale=8).with_primitives(
                PrimitiveSet.proposed()
            ),
            "proposed": proposed_platform(scale=8),
            "ideal": ideal_platform(scale=8),
        }
        resolved = {name: platform_config(name, scale=8) for name in PLATFORMS}
        assert resolved == expected

    def test_platform_config_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown platform"):
            platform_config("future")


class TestWithers:
    def test_with_mapping(self):
        assert legacy_platform().with_mapping("linear").mapping == "linear"

    def test_with_policy(self):
        config = legacy_platform().with_policy(AllocationPolicy.GUARD_ROWS)
        assert config.allocation_policy is AllocationPolicy.GUARD_ROWS

    def test_with_generation(self):
        assert legacy_platform().with_generation("future").generation == "future"

    def test_original_unchanged(self):
        config = legacy_platform()
        config.with_mapping("linear")
        assert config.mapping == "cacheline-interleave"
