"""CPU-side bulk == scalar differential.

``SetAssociativeCache.access_bulk`` claims to be a counter-exact twin of
per-access :meth:`~repro.cpu.cache.SetAssociativeCache.access`.  This
suite pins that claim with randomized sequences: same misses, same
hit/miss/evict/writeback accounting, and the same internal LRU order
afterwards.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import LockError, SetAssociativeCache


@st.composite
def cache_case(draw):
    lines = draw(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    writes = draw(st.lists(
        st.booleans(), min_size=len(lines), max_size=len(lines)
    ))
    locked = draw(st.sets(st.integers(0, 63), max_size=3))
    seed = draw(st.integers(0, 2**16))
    return lines, writes, locked, seed


def _small_cache(locked):
    cache = SetAssociativeCache(sets=4, ways=2, max_locked_ways=1)
    for line in sorted(locked):
        try:
            cache.lock(line)
        except LockError:  # two draws in one set: budget is 1, skip
            pass
    return cache


def _cache_state(cache):
    return (
        cache.hits, cache.misses, cache.evictions, cache.writebacks,
        cache.locked_hits,
        [tuple(s.items()) for s in cache._sets],
    )


@given(case=cache_case())
@settings(max_examples=150, deadline=None)
def test_access_bulk_matches_per_access(case):
    lines, writes, locked, seed = case
    scalar = _small_cache(locked)
    bulk = _small_cache(locked)
    # identical warm state via a shared random prefix
    rng = random.Random(seed)
    prefix = [(rng.randrange(64), rng.random() < 0.3) for _ in range(8)]
    for cache in (scalar, bulk):
        for line, is_write in prefix:
            cache.access(line, is_write)

    expected = []
    for position, (line, is_write) in enumerate(zip(lines, writes)):
        result = scalar.access(line, is_write)
        if not result.hit:
            expected.append((position, result.writeback_line))

    misses = bulk.access_bulk(lines, writes)
    assert misses == expected
    assert bulk.bulk_hits == len(lines) - len(misses)
    state = _cache_state(bulk)
    assert state == _cache_state(scalar)


def test_access_bulk_rejects_negative_lines():
    cache = SetAssociativeCache(sets=4, ways=2, max_locked_ways=1)
    with pytest.raises(ValueError):
        cache.access_bulk([3, -1, 2])
