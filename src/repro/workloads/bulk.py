"""Bulk draws from a CPython ``random.Random`` stream.

The scalar generators in :mod:`repro.workloads.generators` draw from a
CPython ``random.Random`` — a Mersenne Twister.  numpy's ``MT19937`` bit
generator implements the *same* reference algorithm, so cloning the 624
word state (plus cursor) from ``Random.getstate()`` into a numpy bit
generator makes ``random_raw`` reproduce CPython's ``genrand_uint32``
stream word for word, and CPython's ``random()`` — the 53-bit "res53"
combination of two consecutive raw words — is a pure float64 expression
that vectorizes exactly:

    ``((a >> 5) * 67108864.0 + (b >> 6)) / 2**53``

:func:`uniform_block` packages that round trip: it advances the *shared*
scalar ``Random`` past ``count`` draws (writing the evolved Twister state
back), so a caller may freely interleave bulk blocks with scalar draws
and every consumer stays on one stream — pinned by
``tests/property/test_bulk_generators.py``.
"""

from __future__ import annotations

import random

import numpy as _np

#: res53 constants from CPython's ``random_random``
_RES53_HI = 67108864.0  # 2**26
_RES53_INV = 1.0 / 9007199254740992.0  # 2**-53

_SHARED_BIT_GENERATOR = None


def uniform_block(rng: random.Random, count: int):
    """``count`` float64 draws, bit-identical to ``count`` calls of
    ``rng.random()``, advancing ``rng`` past them.

    The scalar ``Random`` stays the single source of truth: its Twister
    state is cloned into a reusable numpy ``MT19937``, the raw words are
    drawn vectorized, and the evolved state is written back with
    ``setstate`` — interleaving bulk blocks and scalar draws therefore
    reads one unbroken stream.
    """
    global _SHARED_BIT_GENERATOR
    if count <= 0:
        return _np.empty(0, dtype=_np.float64)
    version, internal, gauss_next = rng.getstate()
    bit_generator = _SHARED_BIT_GENERATOR
    if bit_generator is None:
        bit_generator = _SHARED_BIT_GENERATOR = _np.random.MT19937(0)
    state = bit_generator.state
    state["state"]["key"] = _np.array(internal[:-1], dtype=_np.uint32)
    state["state"]["pos"] = internal[-1]
    bit_generator.state = state
    raws = bit_generator.random_raw(2 * count).astype(_np.uint64)
    high = raws[0::2] >> _np.uint64(5)
    low = raws[1::2] >> _np.uint64(6)
    evolved = bit_generator.state["state"]
    rng.setstate((
        version,
        tuple(evolved["key"].tolist()) + (int(evolved["pos"]),),
        gauss_next,
    ))
    return (high * _RES53_HI + low) * _RES53_INV
