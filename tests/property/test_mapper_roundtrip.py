"""Round-trip and closed-form properties for every mapper subclass.

Over randomized geometries, bank counts that are not a power of two
included, uniformly for all four schemes (including the remapped
:class:`PermutationInterleaving` and the stateful
:class:`SubarrayIsolatedInterleaving`): ``line_to_ddr`` →
``ddr_to_line`` → the same line, for any line the forward map has
produced, also after the stateful scheme releases and re-places frames;
and ``frame_rows`` (with the row, bank and subarray sets built on it,
and the linear map's ``frames_of_bank``) equals what the per-line
oracle ``frame_addresses`` gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import DramGeometry
from repro.mc.address_map import (
    MAPPING_SCHEMES,
    LinearMapping,
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


def _oracle_rows(addresses):
    """Row key -> offset of the frame's first line in it, in line order,
    read off the per-line translation."""
    rows = {}
    for offset, address in enumerate(addresses):
        rows.setdefault(address.row_key(), offset)
    return rows


@pytest.mark.parametrize("scheme", SCHEMES)
@given(geometry=geometries, data=st.data())
@settings(max_examples=25, deadline=None)
def test_frame_rows_match_the_per_line_oracle(scheme, geometry, data):
    """Item for item and in order, on frames anywhere in the map (so
    rows past the first, where the permutation's XOR or rotation is not
    the identity).  The sets built on ``frame_rows`` must also iterate
    as the per-line sets do, since the allocator and the defenses
    iterate them.  Two subarray mappers fed the same frame order place
    the frames alike."""
    mapper, oracle = _build(scheme, geometry), _build(scheme, geometry)
    if mapper is None:
        return
    frames = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper.total_frames - 1),
            min_size=1, max_size=16,
        )
    )
    for frame in frames:
        addresses = oracle.frame_addresses(frame)
        rows = mapper.frame_rows(frame)
        assert list(rows.items()) == list(_oracle_rows(addresses).items())
        assert list(mapper.rows_of_frame(frame)) == list(
            {address.row_key() for address in addresses}
        )
        assert list(mapper.banks_of_frame(frame)) == list(
            {geometry.bank_index(address) for address in addresses}
        )
        assert list(mapper.subarrays_of_frame(frame)) == list(
            {geometry.subarray_of_row(address.row) for address in addresses}
        )
    if isinstance(mapper, SubarrayIsolatedInterleaving):
        assert mapper._frame_slot == oracle._frame_slot
        assert mapper._frame_group == oracle._frame_group


# banks of 24-280 lines, mostly not a multiple of the 64-line page, so
# frames straddle two banks (or span several when a bank is smaller
# than a page)
straddling = st.builds(
    DramGeometry,
    banks_per_rank=st.sampled_from([2, 3, 5]),
    subarrays_per_bank=st.sampled_from([1, 2]),
    rows_per_subarray=st.sampled_from([3, 5, 7]),
    columns_per_row=st.sampled_from([8, 24, 40]),
)


@given(geometry=st.one_of(geometries, straddling))
@settings(max_examples=25, deadline=None)
def test_linear_frames_of_bank_and_rows_match_the_per_line_scan(geometry):
    mapper, oracle = LinearMapping(geometry), LinearMapping(geometry)
    frame_banks = []
    for frame in range(mapper.total_frames):
        addresses = oracle.frame_addresses(frame)
        assert list(mapper.frame_rows(frame).items()) == list(
            _oracle_rows(addresses).items()
        )
        frame_banks.append({geometry.bank_index(a) for a in addresses})
    for bank in range(geometry.banks_total):
        assert list(mapper.frames_of_bank(bank)) == [
            frame for frame, banks in enumerate(frame_banks) if bank in banks
        ]
