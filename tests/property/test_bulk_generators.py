"""Property test pinning ``uniform_block`` to the scalar Twister stream.

``repro.workloads.bulk.uniform_block`` claims to draw exactly what
``count`` calls of ``rng.random()`` would, and to leave the shared
``Random`` where those calls would have left it, so bulk blocks and
scalar draws can interleave on one stream.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.bulk import uniform_block


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_uniform_block_matches_scalar_random(seed, count):
    """``uniform_block`` is bit-identical to ``rng.random()`` calls and
    leaves the shared ``Random`` in the same state."""
    scalar = random.Random(seed)
    bulk = random.Random(seed)
    draws = uniform_block(bulk, count)
    expected = [scalar.random() for _ in range(count)]
    assert draws.tolist() == expected
    assert bulk.getstate() == scalar.getstate()
    # the very next scalar draw agrees too (state round-trip is live)
    assert bulk.random() == scalar.random()
