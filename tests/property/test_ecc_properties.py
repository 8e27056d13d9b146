"""Property-based tests for the SEC-DED code."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.ecc import (
    CODEWORD_BITS,
    EccOutcome,
    classify_flips,
    decode,
    encode,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
bits = st.integers(min_value=0, max_value=CODEWORD_BITS - 1)


@given(data=words)
@settings(max_examples=200, deadline=None)
def test_roundtrip_clean(data):
    result = decode(encode(data))
    assert result.outcome is EccOutcome.CLEAN
    assert result.data == data


@given(data=words, bit=bits)
@settings(max_examples=200, deadline=None)
def test_any_single_bit_corrected(data, bit):
    result = decode(encode(data) ^ (1 << bit))
    assert result.outcome is EccOutcome.CORRECTED
    assert result.data == data


@given(data=words, pair=st.sets(bits, min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_any_double_bit_detected(data, pair):
    word = encode(data)
    for bit in pair:
        word ^= 1 << bit
    assert decode(word).outcome is EccOutcome.DETECTED


@given(data=words, flips=st.sets(bits, min_size=0, max_size=5))
@settings(max_examples=150, deadline=None)
def test_classification_never_lies_about_correction(data, flips):
    """Whenever classify says CLEAN/CORRECTED, the decoded data really
    equals the original."""
    outcome = classify_flips(data, sorted(flips))
    if outcome in (EccOutcome.CLEAN, EccOutcome.CORRECTED):
        word = encode(data)
        for bit in flips:
            word ^= 1 << bit
        assert decode(word).data == data


@given(data=words, flips=st.sets(bits, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_triple_flips_never_classified_corrected(data, flips):
    outcome = classify_flips(data, sorted(flips))
    assert outcome in (EccOutcome.DETECTED, EccOutcome.SILENT)


def _classify_by_decoding(data, bit_indices):
    """The oracle: encode, flip, decode and compare against ground
    truth."""
    word = encode(data)
    for bit in bit_indices:
        word ^= 1 << bit
    result = decode(word)
    if result.outcome is EccOutcome.DETECTED:
        return EccOutcome.DETECTED
    if result.data == data:
        return EccOutcome.CLEAN if not bit_indices else EccOutcome.CORRECTED
    return EccOutcome.SILENT


@given(data=words, flips=st.lists(bits, min_size=0, max_size=8))
@settings(max_examples=400, deadline=None)
def test_classification_equals_decoding_oracle(data, flips):
    """``classify_flips`` classifies the error pattern alone; for any
    data word and any flipped bits (repeats cancel) it must agree with
    decoding the flipped codeword.  E15 only ever encodes 0, so its
    table cannot catch a data-dependent slip here."""
    assert classify_flips(data, flips) is _classify_by_decoding(data, flips)
