"""Differential test: the incremental allocator against the scan reference.

Both allocators run the same scripts of ``allocate`` (with and without
``avoid_rows``), ``free``, ``retire`` and a tenant's exit (all its
frames freed), each on its own mapper, under every policy and every
mapper that policy accepts.  After every step they must have returned
the same frames (or raised the same error) and agree on free frames,
ownership, the rows of every owned frame (closed form against the
reference's per-line translation), the domains in every row touched so
far, capacity overhead and, for the subarray mapper, frame placement.
The reference probes frame by frame from per-line translations, so this
pins the mappers' closed-form frame rows and bank partitioning's jump
past another domain's bank.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import DramGeometry
from repro.hostos.allocator import AllocationPolicy, PageAllocator
from repro.mc.address_map import (
    CachelineInterleaving,
    LinearMapping,
    PermutationInterleaving,
    SubarrayIsolatedInterleaving,
)
from tests.hostos.scan_allocator import ScanAllocator

GEOMETRIES = (
    # 32 frames each: pages spanning two rows, and two pages per row
    DramGeometry(banks_per_rank=4, subarrays_per_bank=2,
                 rows_per_subarray=8, columns_per_row=32),
    DramGeometry(banks_per_rank=2, subarrays_per_bank=2,
                 rows_per_subarray=4, columns_per_row=128),
    # 18 frames of 4.5 per bank: under the linear map frames 4 and 13
    # straddle two banks
    DramGeometry(banks_per_rank=4, subarrays_per_bank=2,
                 rows_per_subarray=3, columns_per_row=48),
)

# (policy, mapper, guard radius)
CASES = (
    [(AllocationPolicy.DEFAULT, mapper, 1) for mapper in (
        LinearMapping, CachelineInterleaving, PermutationInterleaving,
        SubarrayIsolatedInterleaving,
    )]
    + [(AllocationPolicy.BANK_PARTITION, LinearMapping, 1)]
    + [(AllocationPolicy.GUARD_ROWS, LinearMapping, r) for r in (1, 2)]
    + [(AllocationPolicy.SUBARRAY_AWARE, SubarrayIsolatedInterleaving, 1)]
)

DOMAINS = (1, 2, 3)

# no avoid_rows; a few scattered (bank, row) pairs; or every row below a
# flat row index, which can cover every free frame and force the
# fallback
avoid = st.one_of(
    st.none(),
    st.frozensets(
        st.tuples(st.integers(0, 3), st.integers(0, 15)), min_size=1, max_size=6
    ),
    st.integers(1, 64),
)
step = st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(DOMAINS),
              st.integers(1, 3), avoid),
    st.tuples(st.sampled_from(["free", "retire"]), st.sampled_from(DOMAINS),
              st.integers(0, 31)),
    # the tenant leaves: every frame freed, which releases its banks
    # (bank partition) or its subarray group (subarray-aware)
    st.tuples(st.just("exit"), st.sampled_from(DOMAINS)),
)


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the error type must match too
        return type(exc)


@pytest.mark.parametrize(
    "policy,mapping,radius", CASES,
    ids=[f"{p.value}-{m.name}-r{r}" for p, m, r in CASES],
)
@given(geometry=st.sampled_from(GEOMETRIES), script=st.lists(step, max_size=40))
@settings(max_examples=40, deadline=None)
def test_incremental_allocator_matches_scan_reference(
    policy, mapping, radius, geometry, script
):
    new_mapper, ref_mapper = mapping(geometry), mapping(geometry)
    new = PageAllocator(new_mapper, policy=policy, guard_radius=radius)
    ref = ScanAllocator(ref_mapper, policy=policy, guard_radius=radius)
    touched = set()
    for kind, domain, *args in script:
        if kind == "allocate":
            count, rows = args
            if isinstance(rows, int):
                rows = [divmod(flat, geometry.rows_per_bank)
                        for flat in range(min(rows, geometry.rows_total))]
            avoid_rows = rows and frozenset(
                (0, 0, bank % geometry.banks_total, row % geometry.rows_per_bank)
                for bank, row in rows
            )
            touched.update(avoid_rows or ())
            got = outcome(lambda: new.allocate(domain, count, avoid_rows))
            want = outcome(lambda: ref.allocate(domain, count, avoid_rows))
        elif kind == "exit":
            got = outcome(lambda: [new.free(f) for f in new.frames_of(domain)])
            want = outcome(lambda: [ref.free(f) for f in ref.frames_of(domain)])
        else:
            held = new.frames_of(domain)
            if not held:
                continue
            frame = held[args[0] % len(held)]
            got = outcome(lambda: getattr(new, kind)(frame))
            want = outcome(lambda: getattr(ref, kind)(frame))
        assert got == want, (kind, domain, args)
        for asid in DOMAINS:
            frames = new.frames_of(asid)
            assert frames == ref.frames_of(asid)
            for frame in frames:
                rows = ref.rows_of_frame(frame)
                assert new_mapper.rows_of_frame(frame) == rows
                assert new.rows_of_frame(frame) == rows
                touched.update(rows)
        assert new.free_frames == ref.free_frames
        for row in touched:
            assert new.domains_in_row(row) == ref.domains_in_row(row), row
        assert new.capacity_overhead() == ref.capacity_overhead()
        if mapping is SubarrayIsolatedInterleaving:
            assert new_mapper._frame_slot == ref_mapper._frame_slot
            assert new_mapper._frame_group == ref_mapper._frame_group
            assert new_mapper._domain_group == ref_mapper._domain_group
