"""SEC-DED ECC: the defense-in-depth layer the paper's related work
dismantles.

The paper cites Cojocar et al. [12] ("Exploiting correcting codes: on
the effectiveness of ECC memory against Rowhammer attacks"): server ECC
(single-error-correct, double-error-detect per code word) was long
assumed to neutralize Rowhammer; it does not — one flipped bit per word
is silently corrected, two crash the machine, and three or more can slip
through as *silent data corruption*.

This module implements a real (72,64) Hamming+parity SEC-DED code —
encode, decode, correct, classify — so experiment E15 can measure how
hammer-induced multi-bit flips distribute across those three outcomes,
instead of asserting the citation.

The code is the classic construction: check bits at power-of-two
positions of a 72-bit codeword cover parity groups; an overall parity
bit distinguishes single (correctable) from double (detectable-only)
errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

#: data bits per ECC word (one 64-bit word per code word, as in DDR ECC)
DATA_BITS = 64
#: Hamming check bits for 64 data bits
CHECK_BITS = 7
#: + 1 overall parity bit
CODEWORD_BITS = DATA_BITS + CHECK_BITS + 1  # 72


class EccOutcome(enum.Enum):
    """What the memory controller's ECC logic concluded about a word."""

    CLEAN = "clean"  # no error syndrome
    CORRECTED = "corrected"  # single-bit error, fixed transparently
    DETECTED = "detected"  # uncorrectable (machine-check / crash)
    SILENT = "silent"  # corrupted data with a clean or misleading syndrome


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


# Positions 1..71 in Hamming numbering; powers of two hold check bits,
# the rest hold data bits in order.  Position 0 holds overall parity.
_DATA_POSITIONS: List[int] = [
    position
    for position in range(1, CODEWORD_BITS)
    if not _is_power_of_two(position)
][:DATA_BITS]
_CHECK_POSITIONS: List[int] = [1 << i for i in range(CHECK_BITS)]
#: (check position, mask of the positions 1..71 its parity group covers)
_PARITY_MASKS: List[Tuple[int, int]] = [
    (check, sum(1 << p for p in range(1, CODEWORD_BITS) if p & check))
    for check in _CHECK_POSITIONS
]

#: mask of the codeword positions that hold data bits
_DATA_MASK = sum(1 << position for position in _DATA_POSITIONS)

assert len(_DATA_POSITIONS) == DATA_BITS


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _syndrome(word: int) -> int:
    """OR of the check positions whose parity group reads odd."""
    syndrome = 0
    for check, mask in _PARITY_MASKS:
        if _parity(word & mask):
            syndrome |= check
    return syndrome


def encode(data: int) -> int:
    """Encode a 64-bit integer into a 72-bit SEC-DED codeword."""
    if not 0 <= data < (1 << DATA_BITS):
        raise ValueError("data must be a 64-bit unsigned integer")
    word = 0
    for index, position in enumerate(_DATA_POSITIONS):
        if (data >> index) & 1:
            word |= 1 << position
    # no group covers another's check position, so each check bit
    # depends on the data bits alone
    for check, mask in _PARITY_MASKS:
        if _parity(word & mask):
            word |= 1 << check
    # overall parity over positions 1..71, stored at position 0
    return word | _parity(word)


def _extract_data(word: int) -> int:
    data = 0
    for index, position in enumerate(_DATA_POSITIONS):
        if (word >> position) & 1:
            data |= 1 << index
    return data


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one codeword."""

    data: int
    outcome: EccOutcome


def decode(word: int) -> DecodeResult:
    """Decode a 72-bit codeword: correct single-bit errors, flag double-
    bit errors, and return whatever the hardware would return.

    Three or more flipped bits alias into one of the other syndromes —
    sometimes a "single-bit error" at the wrong position (miscorrection)
    or even a clean syndrome.  The caller compares against ground truth
    to classify those as SILENT (see :func:`classify_flips`).
    """
    if not 0 <= word < (1 << CODEWORD_BITS):
        raise ValueError("word must be a 72-bit unsigned integer")
    syndrome = _syndrome(word)
    overall = _parity(word)

    if syndrome == 0 and overall == 0:
        return DecodeResult(_extract_data(word), EccOutcome.CLEAN)
    if overall == 1:
        # odd number of flipped bits; syndrome names the (apparent) one
        if syndrome == 0:
            # the overall parity bit itself flipped
            return DecodeResult(_extract_data(word), EccOutcome.CORRECTED)
        if syndrome < CODEWORD_BITS:
            corrected = word ^ (1 << syndrome)
            return DecodeResult(_extract_data(corrected), EccOutcome.CORRECTED)
        return DecodeResult(_extract_data(word), EccOutcome.DETECTED)
    # even number of flips with a nonzero syndrome: uncorrectable
    return DecodeResult(_extract_data(word), EccOutcome.DETECTED)


def classify_flips(data: int, bit_indices: List[int]) -> EccOutcome:
    """Ground-truth classification of flipping the bits at
    ``bit_indices`` of ``data``'s codeword, as encode → flip → decode →
    compare would find it:

    * decoded == original and hardware said CLEAN/CORRECTED → CORRECTED
      (or CLEAN when nothing flipped);
    * hardware said DETECTED → DETECTED (crash, a DoS outcome);
    * decoded != original while hardware said CLEAN/CORRECTED → SILENT.

    The code is linear, so the outcome depends on the error pattern
    alone, never on ``data``: the decoder sees the pattern's syndrome
    (the XOR of the flipped Hamming positions) and its overall parity
    (the flip count mod 2), and the word decodes wrong exactly when the
    pattern left after the decoder's correction touches a data position.
    """
    if not 0 <= data < (1 << DATA_BITS):
        raise ValueError("data must be a 64-bit unsigned integer")
    error = syndrome = 0
    for bit in bit_indices:
        if not 0 <= bit < CODEWORD_BITS:
            raise ValueError(f"bit index {bit} out of codeword range")
        error ^= 1 << bit
        syndrome ^= bit
    if len(bit_indices) & 1:
        if syndrome >= CODEWORD_BITS:
            return EccOutcome.DETECTED
        error ^= 1 << syndrome  # the decoder's correction
    elif syndrome:
        return EccOutcome.DETECTED
    if error & _DATA_MASK:
        return EccOutcome.SILENT
    return EccOutcome.CORRECTED if bit_indices else EccOutcome.CLEAN


def classify_line_flips(
    bits_per_word: List[int], rng
) -> Tuple[EccOutcome, List[EccOutcome]]:
    """Classify a whole cache line given how many flipped bits landed in
    each of its ECC words; per-word bit positions are drawn from ``rng``.

    The line-level outcome is the worst word: SILENT > DETECTED >
    CORRECTED > CLEAN (silent corruption dominates because it defeats
    the protection entirely; detection "only" costs availability).
    """
    severity = {
        EccOutcome.CLEAN: 0,
        EccOutcome.CORRECTED: 1,
        EccOutcome.DETECTED: 2,
        EccOutcome.SILENT: 3,
    }
    outcomes = []
    for bits in bits_per_word:
        positions = rng.sample(range(CODEWORD_BITS), min(bits, CODEWORD_BITS))
        outcomes.append(classify_flips(0, sorted(positions)))
    line_outcome = max(outcomes, key=lambda o: severity[o], default=EccOutcome.CLEAN)
    return line_outcome, outcomes
