"""Round-trip properties for every mapper subclass.

Over randomized geometries, bank counts that are not a power of two
included, uniformly for all four schemes (including the remapped
:class:`PermutationInterleaving` and the stateful
:class:`SubarrayIsolatedInterleaving`): ``line_to_ddr`` →
``ddr_to_line`` → the same line, for any line the forward map has
produced, also after the stateful scheme releases and re-places frames.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import DramGeometry
from repro.mc.address_map import (
    MAPPING_SCHEMES,
    SubarrayIsolatedInterleaving,
    make_mapper,
)

geometries = st.builds(
    DramGeometry,
    channels=st.sampled_from([1, 2]),
    ranks_per_channel=st.sampled_from([1, 2]),
    banks_per_rank=st.sampled_from([2, 3, 4, 6, 8]),
    subarrays_per_bank=st.sampled_from([2, 4]),
    rows_per_subarray=st.sampled_from([8, 16]),
    columns_per_row=st.sampled_from([16, 32, 64]),
)

SCHEMES = sorted(MAPPING_SCHEMES)


def _build(scheme, geometry):
    """A mapper for this geometry, or None where the scheme's structural
    preconditions (subarray scheme: banks divide the page) don't hold."""
    try:
        return make_mapper(scheme, geometry)
    except ValueError:
        return None


def _sample_lines(mapper, data):
    return data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper.total_lines - 1),
            min_size=1, max_size=48,
        )
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@given(geometry=geometries, data=st.data())
@settings(max_examples=25, deadline=None)
def test_roundtrip_for_every_scheme(scheme, geometry, data):
    mapper = _build(scheme, geometry)
    if mapper is None:
        return
    for line in _sample_lines(mapper, data):
        address = mapper.line_to_ddr(line)
        assert mapper.ddr_to_line(address) == line


@given(geometry=geometries, data=st.data())
@settings(max_examples=15, deadline=None)
def test_subarray_roundtrip_survives_release_and_reuse(geometry, data):
    """The stateful scheme stays invertible after frames are released
    and their slots re-placed (the memo-invalidation path)."""
    if 64 % geometry.banks_total != 0:
        return
    mapper = SubarrayIsolatedInterleaving(geometry)
    frames = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper.total_frames - 1),
            min_size=2, max_size=8, unique=True,
        )
    )
    for frame in frames:
        for line in mapper.lines_of_frame(frame):
            mapper.line_to_ddr(line)
    released = frames[0]
    mapper.release_frame(released)
    survivors = frames[1:]
    for frame in survivors:
        for line in mapper.lines_of_frame(frame):
            assert mapper.ddr_to_line(mapper.line_to_ddr(line)) == line
    # touching the released frame again re-places it and round-trips
    for line in mapper.lines_of_frame(released):
        assert mapper.ddr_to_line(mapper.line_to_ddr(line)) == line
