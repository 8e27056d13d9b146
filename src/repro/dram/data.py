"""An optional data plane: actual bytes behind the address space.

The disturbance oracle records *that* a row flipped; the data plane
records *what* that did to stored bytes, so tenants can literally write
patterns, get hammered, and read corruption back — the observable a real
Rowhammer victim (or templating tool) works from.

Storage is sparse (only written lines exist).  Corruption is applied at
flip time by the system's flip router: for a flip in row R, one written
line of R (if any) gets ``flipped_bits`` random bits XORed, using the
flip event's own seeded randomness so runs stay reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple


class DataPlane:
    """Sparse byte storage keyed by physical cache-line index."""

    def __init__(self, cacheline_bytes: int = 64, seed: int = 0xDA7A) -> None:
        if cacheline_bytes < 1:
            raise ValueError("cacheline_bytes must be >= 1")
        self.cacheline_bytes = cacheline_bytes
        self._lines: Dict[int, bytearray] = {}
        self._rng = random.Random(seed)
        self.corrupted_lines: List[int] = []

    # ------------------------------------------------------------------
    # Program-visible access
    # ------------------------------------------------------------------

    def write(self, physical_line: int, data: bytes) -> None:
        """Store one line; short writes are zero-padded."""
        if physical_line < 0:
            raise ValueError("physical_line must be >= 0")
        if len(data) > self.cacheline_bytes:
            raise ValueError(
                f"data ({len(data)} bytes) exceeds the line size "
                f"({self.cacheline_bytes})"
            )
        buffer = bytearray(self.cacheline_bytes)
        buffer[: len(data)] = data
        self._lines[physical_line] = buffer

    def read(self, physical_line: int) -> bytes:
        """Read one line; unwritten lines read as zeros."""
        if physical_line < 0:
            raise ValueError("physical_line must be >= 0")
        stored = self._lines.get(physical_line)
        if stored is None:
            return bytes(self.cacheline_bytes)
        return bytes(stored)

    # ------------------------------------------------------------------
    # Fault injection (driven by the flip router)
    # ------------------------------------------------------------------

    def corrupt_one_of(
        self, candidate_lines: Iterable[int], bits: int
    ) -> Optional[Tuple[int, List[int]]]:
        """Flip ``bits`` random bits in one *written* line among the
        candidates (a flip only damages data that exists).  Returns
        ``(line, bit_indices)`` or ``None`` if nothing was written there.
        """
        written = sorted(
            line for line in candidate_lines if line in self._lines
        )
        if not written:
            return None
        line = written[self._rng.randrange(len(written))]
        buffer = self._lines[line]
        flipped: List[int] = []
        for _ in range(max(1, bits)):
            bit_index = self._rng.randrange(self.cacheline_bytes * 8)
            buffer[bit_index // 8] ^= 1 << (bit_index % 8)
            flipped.append(bit_index)
        self.corrupted_lines.append(line)
        return line, flipped

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def verify(self, physical_line: int, expected: bytes) -> bool:
        """Does the stored line still match ``expected`` (zero-padded)?"""
        buffer = bytearray(self.cacheline_bytes)
        buffer[: len(expected)] = expected
        return self.read(physical_line) == bytes(buffer)

    def corrupted_count(self) -> int:
        return len(self.corrupted_lines)
