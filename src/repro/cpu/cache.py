"""A set-associative last-level cache with way/line locking.

Two roles in the reproduction:

* the normal request path — core loads/stores hit or miss here, and only
  misses/writebacks reach the memory controller (the indirection that
  makes software row refresh "convoluted", §4.3);
* the *cache-line locking* defense substrate (§4.2): the host OS can pin
  a hot line into reserved ways so it stops generating ACTs for the rest
  of the refresh interval.  Locked lines are exempt from replacement; a
  cap on locked ways bounds how much associativity the defense may steal.

The model is physically indexed by cache-line number, write-back,
write-allocate, with LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set


@dataclass(frozen=True, slots=True)
class CacheAccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: line that must be fetched from memory (the missed line), or None
    fill_line: Optional[int]
    #: dirty line evicted by the fill and needing writeback, or None
    writeback_line: Optional[int]
    #: the access was absorbed by a *locked* line
    served_by_locked: bool = False


# Hit outcomes carry no per-access data, so the two possible values are
# shared singletons — the hit path allocates nothing.
_HIT = CacheAccessResult(hit=True, fill_line=None, writeback_line=None)
_LOCKED_HIT = CacheAccessResult(
    hit=True, fill_line=None, writeback_line=None, served_by_locked=True
)


class LockError(Exception):
    """Raised when a line cannot be (un)locked."""


class SetAssociativeCache:
    """LRU set-associative cache over physical cache-line indices."""

    def __init__(
        self,
        sets: int = 256,
        ways: int = 8,
        max_locked_ways: int = 2,
    ) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("sets and ways must be >= 1")
        if not 0 <= max_locked_ways < ways:
            raise ValueError("max_locked_ways must leave at least one normal way")
        self.sets = sets
        self.ways = ways
        self.max_locked_ways = max_locked_ways
        # per set: line -> dirty flag, in LRU order (oldest first)
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(sets)
        ]
        self._locked: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.locked_hits = 0

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def set_of(self, line: int) -> int:
        return line % self.sets

    def access(self, line: int, is_write: bool = False) -> CacheAccessResult:
        """Look up ``line``; on miss, choose a victim and report the fill
        and any writeback the caller must perform."""
        if line < 0:
            raise ValueError("line must be >= 0")
        cache_set = self._sets[line % self.sets]
        if line in cache_set:
            self.hits += 1
            if is_write and not cache_set[line]:
                cache_set[line] = True
            cache_set.move_to_end(line)  # MRU
            if line in self._locked:
                self.locked_hits += 1
                return _LOCKED_HIT
            return _HIT
        self.misses += 1
        writeback = self._make_room(cache_set)
        cache_set[line] = is_write
        return CacheAccessResult(hit=False, fill_line=line, writeback_line=writeback)

    def flush(self, line: int) -> Optional[int]:
        """clflush: drop ``line``; returns the line if a dirty writeback
        is needed.  Flushing a locked line is refused (the lock defense
        must hold against attacker flushes of *its own* lines only —
        flush is modelled per-domain at the core layer)."""
        if line in self._locked:
            raise LockError(f"line {line} is locked and cannot be flushed")
        cache_set = self._sets[self.set_of(line)]
        if line not in cache_set:
            return None
        dirty = cache_set.pop(line)
        if dirty:
            self.writebacks += 1
            return line
        return None

    def contains(self, line: int) -> bool:
        return line in self._sets[self.set_of(line)]

    # ------------------------------------------------------------------
    # Locking (the §4.2 defense hook)
    # ------------------------------------------------------------------

    def lock(self, line: int) -> Optional[int]:
        """Pin ``line`` into its set.  Inserts it if absent (returns a
        writeback line if the insertion evicts dirty data).  Raises
        :class:`LockError` when the set's locked-way budget is exhausted
        — the "way(s) become full" fallback condition of §4.2."""
        cache_set = self._sets[self.set_of(line)]
        locked_here = sum(1 for cached in cache_set if cached in self._locked)
        if line not in self._locked and locked_here >= self.max_locked_ways:
            raise LockError(
                f"set {self.set_of(line)} already has {locked_here} locked "
                f"ways (budget {self.max_locked_ways})"
            )
        writeback = None
        if line not in cache_set:
            writeback = self._make_room(cache_set)
            cache_set[line] = False
        self._locked.add(line)
        return writeback

    def unlock(self, line: int) -> None:
        self._locked.discard(line)

    def unlock_all(self) -> None:
        self._locked.clear()

    def is_locked(self, line: int) -> bool:
        return line in self._locked

    def locked_lines(self) -> Set[int]:
        return set(self._locked)

    def locked_ways_in_set(self, set_index: int) -> int:
        return sum(1 for line in self._sets[set_index] if line in self._locked)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _make_room(self, cache_set: "OrderedDict[int, bool]") -> Optional[int]:
        """Evict the LRU unlocked entry if the set is full; returns the
        evicted line when it was dirty (needs writeback)."""
        if len(cache_set) < self.ways:
            return None
        for victim in cache_set:  # oldest first
            if victim not in self._locked:
                dirty = cache_set.pop(victim)
                self.evictions += 1
                if dirty:
                    self.writebacks += 1
                    return victim
                return None
        raise LockError("all ways in the set are locked; cannot evict")
