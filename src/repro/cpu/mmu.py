"""Per-domain virtual memory: page tables and an ASID-tagged TLB.

The paper's primitives are specified against *virtual* addresses at the
ISA surface (the ``refresh`` instruction takes a ``va``, §4.3) and against
trust domains identified by ASIDs (§4.1 suggests coordinating domain ↔
subarray-group mappings via ASID tags "akin to those already used in the
TLB").  This module provides both: per-domain page tables mapping virtual
page numbers to physical frames, and a small ASID-tagged TLB whose reach
is irrelevant to security but keeps the model honest about translation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple


class TranslationError(Exception):
    """Raised on access to an unmapped virtual page."""


@dataclass(frozen=True)
class PageMapping:
    """One virtual→physical page mapping."""

    virtual_page: int
    frame: int
    writable: bool = True


class PageTable:
    """One domain's virtual→physical map (single-level, page granular)."""

    def __init__(self, asid: int) -> None:
        self.asid = asid
        self._map: Dict[int, PageMapping] = {}

    def map(self, virtual_page: int, frame: int, writable: bool = True) -> None:
        if virtual_page < 0 or frame < 0:
            raise ValueError("virtual_page and frame must be >= 0")
        if virtual_page in self._map:
            raise ValueError(f"virtual page {virtual_page} already mapped")
        self._map[virtual_page] = PageMapping(virtual_page, frame, writable)

    def remap(self, virtual_page: int, new_frame: int) -> int:
        """Point ``virtual_page`` at ``new_frame`` (used by the aggressor
        wear-leveling defense, §4.2).  Returns the old frame."""
        old = self._map.get(virtual_page)
        if old is None:
            raise TranslationError(f"virtual page {virtual_page} not mapped")
        self._map[virtual_page] = PageMapping(
            virtual_page, new_frame, old.writable
        )
        return old.frame

    def unmap(self, virtual_page: int) -> int:
        old = self._map.pop(virtual_page, None)
        if old is None:
            raise TranslationError(f"virtual page {virtual_page} not mapped")
        return old.frame

    def translate(self, virtual_page: int) -> PageMapping:
        mapping = self._map.get(virtual_page)
        if mapping is None:
            raise TranslationError(
                f"ASID {self.asid}: virtual page {virtual_page} not mapped"
            )
        return mapping

    def mappings(self) -> Iterator[PageMapping]:
        return iter(self._map.values())

    def frames(self) -> Iterator[int]:
        for mapping in self._map.values():
            yield mapping.frame

    def __len__(self) -> int:
        return len(self._map)


class Tlb:
    """ASID-tagged LRU TLB over (asid, virtual_page) → frame."""

    def __init__(self, entries: int = 64) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.capacity = entries
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, asid: int, virtual_page: int) -> Optional[int]:
        key = (asid, virtual_page)
        frame = self._entries.get(key)
        if frame is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return frame

    def fill(self, asid: int, virtual_page: int, frame: int) -> None:
        key = (asid, virtual_page)
        self._entries[key] = frame
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, asid: int, virtual_page: Optional[int] = None) -> None:
        """Shoot down one page of one ASID, or the whole ASID."""
        if virtual_page is not None:
            self._entries.pop((asid, virtual_page), None)
            return
        for key in [k for k in self._entries if k[0] == asid]:
            del self._entries[key]


class Mmu:
    """Translation front-end shared by all cores: per-ASID page tables
    plus one TLB.  Addresses are line-granular throughout the simulator;
    ``lines_per_page`` converts between lines and pages."""

    def __init__(self, lines_per_page: int = 64, tlb_entries: int = 64) -> None:
        if lines_per_page < 1:
            raise ValueError("lines_per_page must be >= 1")
        self.lines_per_page = lines_per_page
        self.tlb = Tlb(tlb_entries)
        self._tables: Dict[int, PageTable] = {}

    def table(self, asid: int) -> PageTable:
        if asid not in self._tables:
            self._tables[asid] = PageTable(asid)
        return self._tables[asid]

    def translate_line(self, asid: int, virtual_line: int) -> int:
        """Translate a virtual cache-line index to a physical one."""
        lines_per_page = self.lines_per_page
        virtual_page = virtual_line // lines_per_page
        offset = virtual_line - virtual_page * lines_per_page
        # Inlined TLB hit path (this is the hottest translation route).
        tlb = self.tlb
        key = (asid, virtual_page)
        frame = tlb._entries.get(key)
        if frame is None:
            tlb.misses += 1
            mapping = self.table(asid).translate(virtual_page)
            frame = mapping.frame
            tlb.fill(asid, virtual_page, frame)
        else:
            tlb.hits += 1
            tlb._entries.move_to_end(key)
        return frame * lines_per_page + offset

    def remap_page(self, asid: int, virtual_page: int, new_frame: int) -> int:
        """Move a page to a new frame and shoot down the stale TLB entry.
        Returns the old frame."""
        old = self.table(asid).remap(virtual_page, new_frame)
        self.tlb.invalidate(asid, virtual_page)
        return old

    def reverse_lookup(self, frame: int) -> Optional[Tuple[int, int]]:
        """Find which (asid, virtual_page) currently maps ``frame``."""
        for asid, table in self._tables.items():
            for mapping in table.mappings():
                if mapping.frame == frame:
                    return asid, mapping.virtual_page
        return None

