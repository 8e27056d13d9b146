"""Physical→DDR address mapping schemes, including the paper's primitive.

The memory controller converts CPU physical addresses into DDR logical
coordinates according to a fixed mapping chosen at boot (§2.1).  Four
schemes are modelled, matching the design space of §4.1:

``LinearMapping``
    Interleaving disabled: a page's cache lines fill consecutive columns
    of one row in one bank.  Enables bank-aware allocation (PALLOC-style
    isolation) but forfeits bank-level parallelism — the >18% performance
    cost the paper cites as making this option unacceptable in production.

``CachelineInterleaving``
    Conventional interleaving: consecutive cache lines round-robin across
    every bank.  Maximum parallelism, but lines from different pages —
    hence different trust domains — share banks and even rows, which is
    precisely why bank-aware isolation breaks under interleaving.

``PermutationInterleaving``
    Interleaving with the bank index XOR-permuted by row bits (Zhang et
    al., MICRO '00 [63]) to cut row-buffer conflicts between interleaved
    streams.  Security-equivalent to ``CachelineInterleaving``: domains
    still mix.

``SubarrayIsolatedInterleaving``  — **the paper's isolation primitive**
    Lines of one page still interleave across all banks (keeping the
    parallelism), but every line of the page lands in the page's domain's
    *subarray group*: the same subarray index in each bank.  Subarrays are
    electromagnetically isolated, so no cross-domain aggressor-victim
    pairs exist (§4.1, Fig. 2).  The host OS declares each frame's domain
    (directly via ASID or indirectly via its knowledge of the map); the
    controller enforces the group placement.

Each scheme has one forward map, ``_line_to_ddr_uncached``, which
requests and the hammer chain reach through the memoised
:meth:`AddressMapper.line_to_ddr`, and one closed form for whole frames,
:meth:`AddressMapper.frame_rows`, which the allocator, the attack planner
and the row/bank/subarray queries use without translating each line.
:meth:`AddressMapper.frame_addresses` translates a frame line by line and
is the oracle the property tests hold ``frame_rows`` to.  All mappings
are bijections between cache-line indices and DDR addresses, verified by
property tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.dram.geometry import DdrAddress, DramGeometry

RowKey = Tuple[int, int, int, int]


class AddressMapper:
    """Base class: an invertible map line-index ↔ :class:`DdrAddress`."""

    #: human-readable scheme name used in experiment tables
    name: str = "base"
    #: whether consecutive lines of one page spread across banks
    interleaves: bool = False
    #: whether the scheme can confine a trust domain's pages
    isolates_domains: bool = False

    #: bound on the per-mapper ``line_to_ddr`` memo (entries)
    CACHE_CAPACITY = 1 << 16

    def __init__(self, geometry: DramGeometry, page_bytes: int = 4096) -> None:
        if page_bytes % geometry.cacheline_bytes != 0:
            raise ValueError("page size must be a multiple of the cache-line size")
        self.geometry = geometry
        self.page_bytes = page_bytes
        self.lines_per_page = page_bytes // geometry.cacheline_bytes
        self.total_lines = geometry.cachelines_total
        self.total_frames = self.total_lines // self.lines_per_page
        self._ddr_cache: Dict[int, DdrAddress] = {}
        #: memo telemetry, exported as ``cache.addrmap.*`` gauges
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        # Sizes and the flat-bank-index -> (channel, rank, bank) table
        # the forward maps use instead of per-line geometry calls.
        self._banks = geometry.banks_total
        self._rows = geometry.rows_per_bank
        self._cols = geometry.columns_per_row
        self._bank_coords: List[tuple] = [
            geometry.bank_from_index(i) for i in range(self._banks)
        ]
        self._bank_flat: Dict[tuple, int] = {
            coords: i for i, coords in enumerate(self._bank_coords)
        }

    # -- abstract -------------------------------------------------------

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        raise NotImplementedError

    def frame_rows(self, frame: int) -> Dict[RowKey, int]:
        """Every row key the frame's lines touch, mapped to the offset of
        the frame's first line in that row, in line order: what reading
        ``row_key()`` off :meth:`frame_addresses` gives, computed per
        row instead of per line and without the ``line_to_ddr`` memo.
        Frame queries (allocator probes, the attack planner, row sets)
        would fill the memo with lines no request touches and evict the
        ones requests do."""
        raise NotImplementedError

    def ddr_to_line(self, address: DdrAddress) -> int:
        raise NotImplementedError

    # -- the memoised hot path -------------------------------------------

    def line_to_ddr(self, line: int) -> DdrAddress:
        """Map one cache-line index; results are memoised per mapper in a
        bounded insertion-order cache (a mapping is fixed once
        established, so entries only need invalidation on explicit
        remapping events such as
        :meth:`SubarrayIsolatedInterleaving.release_frame`).  The hit
        path is a single ``dict.get`` — eviction order is irrelevant for
        a pure memo, so no LRU reordering work is done per hit."""
        address = self._ddr_cache.get(line)
        if address is not None:
            self.memo_hits += 1
            return address
        self.memo_misses += 1
        address = self._line_to_ddr_uncached(line)
        cache = self._ddr_cache
        if len(cache) >= self.CACHE_CAPACITY:
            del cache[next(iter(cache))]
            self.memo_evictions += 1
        cache[line] = address
        return address

    def memo_counters(self) -> Dict[str, int]:
        """Telemetry snapshot of the ``line_to_ddr`` memo (gauge source
        for the ``cache.addrmap.*`` registry prefix)."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "entries": len(self._ddr_cache),
        }

    def _invalidate_lines(self, lines) -> None:
        """Drop memoised entries (used when part of the map changes)."""
        cache = self._ddr_cache
        for line in lines:
            cache.pop(line, None)

    # -- shared helpers ---------------------------------------------------

    def physical_to_ddr(self, physical: int) -> DdrAddress:
        """Map a byte-granularity CPU physical address."""
        return self.line_to_ddr(physical // self.geometry.cacheline_bytes)

    def frame_of_line(self, line: int) -> int:
        return line // self.lines_per_page

    def lines_of_frame(self, frame: int) -> range:
        self._check_frame(frame)
        start = frame * self.lines_per_page
        return range(start, start + self.lines_per_page)

    def frame_addresses(self, frame: int) -> List[DdrAddress]:
        """DDR coordinates of every line in ``frame``, translated one by
        one through the forward map (not the memo): the per-line oracle
        :meth:`frame_rows` is tested against.  Lazy placement of a
        never-assigned subarray frame still happens, in
        ``_line_to_ddr_uncached``."""
        to_ddr = self._line_to_ddr_uncached
        return [to_ddr(line) for line in self.lines_of_frame(frame)]

    # The three sets below are comprehensions over ``frame_rows``, not
    # ``set(dict)``: CPython presizes a set built from a dict, which
    # would change its iteration order from that of a set filled line by
    # line, and the allocator and the defenses iterate these sets.

    def banks_of_frame(self, frame: int) -> Set[int]:
        """Flat bank indices the frame's lines touch."""
        bank_flat = self._bank_flat
        return {bank_flat[row[:3]] for row in self.frame_rows(frame)}

    def rows_of_frame(self, frame: int) -> Set[tuple]:
        """Row keys the frame's lines touch."""
        return {row for row in self.frame_rows(frame)}

    def subarrays_of_frame(self, frame: int) -> Set[int]:
        """Subarray indices (bank-local) the frame's lines touch."""
        per_subarray = self.geometry.rows_per_subarray
        return {row[3] // per_subarray for row in self.frame_rows(frame)}

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.total_lines:
            raise ValueError(f"line {line} out of range [0, {self.total_lines})")

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self.total_frames:
            raise ValueError(f"frame {frame} out of range [0, {self.total_frames})")


class LinearMapping(AddressMapper):
    """No interleaving: lines fill a row, rows fill a bank, then the next
    bank.  A page occupies consecutive columns of a single row (or a few
    consecutive rows) of one bank."""

    name = "linear"
    interleaves = False
    isolates_domains = False

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        rest, column = divmod(line, self._cols)
        bank_flat, row = divmod(rest, self._rows)
        channel, rank, bank = self._bank_coords[bank_flat]
        return DdrAddress(channel, rank, bank, row, column)

    def frame_rows(self, frame: int) -> Dict[RowKey, int]:
        # one entry per run of ``columns_per_row`` lines; the flat row
        # index ``line // columns`` walks rows and then banks
        self._check_frame(frame)
        cols, rows = self._cols, self._rows
        start = frame * self.lines_per_page
        placed = {}
        for flat_row in range(start // cols,
                              (start + self.lines_per_page - 1) // cols + 1):
            bank_flat, row = divmod(flat_row, rows)
            placed[self._bank_coords[bank_flat] + (row,)] = max(
                0, flat_row * cols - start
            )
        return placed

    def frames_of_bank(self, bank_flat: int) -> range:
        """Frames with at least one line in the flat bank ``bank_flat``
        (a bank whose line count is not a multiple of the page shares a
        frame with each neighbouring bank)."""
        bank_lines = self._rows * self._cols
        first = bank_flat * bank_lines
        last = (first + bank_lines - 1) // self.lines_per_page
        return range(first // self.lines_per_page,
                     min(last + 1, self.total_frames))

    def ddr_to_line(self, address: DdrAddress) -> int:
        bank_flat = self.geometry.bank_index(address)
        rest = bank_flat * self._rows + address.row
        return rest * self._cols + address.column


class CachelineInterleaving(AddressMapper):
    """Consecutive cache lines round-robin across all banks."""

    name = "cacheline-interleave"
    interleaves = True
    isolates_domains = False

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        rest, bank_flat = divmod(line, self._banks)
        row, column = divmod(rest, self._cols)
        channel, rank, bank = self._bank_coords[bank_flat]
        return DdrAddress(channel, rank, bank, row, column)

    def frame_rows(self, frame: int) -> Dict[RowKey, int]:
        # one entry per bank per row
        start = frame * self.lines_per_page
        banks, coords = self._banks, self._bank_coords
        return {
            coords[line % banks] + (row,): line - start
            for row, heads in self._row_heads(frame)
            for line in heads
        }

    def _row_heads(self, frame: int) -> Iterator[Tuple[int, range]]:
        """Each row the frame's lines reach, in line order, with the
        frame's first line in each bank of it: a row holds ``banks *
        columns`` consecutive lines, and the bank repeats every
        ``banks`` lines."""
        self._check_frame(frame)
        banks = self._banks
        row_lines = banks * self._cols
        line = frame * self.lines_per_page
        end = line + self.lines_per_page
        while line < end:
            row = line // row_lines
            stop = min(end, (row + 1) * row_lines)
            yield row, range(line, min(stop, line + banks))
            line = stop

    def ddr_to_line(self, address: DdrAddress) -> int:
        bank_flat = self.geometry.bank_index(address)
        rest = address.row * self._cols + address.column
        return rest * self._banks + bank_flat


class PermutationInterleaving(CachelineInterleaving):
    """Cache-line interleaving with the bank index permuted by XOR with
    low row bits [63], reducing pathological row-buffer conflicts when
    multiple streams stride across banks.  When the bank count is not a
    power of two an XOR could leave the bank range, so the bank index is
    rotated by the row instead."""

    name = "permutation-interleave"

    def __init__(self, geometry: DramGeometry, page_bytes: int = 4096) -> None:
        super().__init__(geometry, page_bytes)
        self._xor = _is_pow2(self._banks)

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        banks = self._banks
        rest, bank_flat = divmod(line, banks)
        row, column = divmod(rest, self._cols)
        if self._xor:
            bank_flat = (bank_flat ^ row) % banks
        else:
            bank_flat = (bank_flat + row) % banks
        channel, rank, bank = self._bank_coords[bank_flat]
        return DdrAddress(channel, rank, bank, row, column)

    def frame_rows(self, frame: int) -> Dict[RowKey, int]:
        # the cache-line form with each row's permutation applied: the
        # permutation is a bijection on the banks of one row, so the
        # first line in each bank stays the same
        start = frame * self.lines_per_page
        banks, coords = self._banks, self._bank_coords
        if self._xor:
            return {
                coords[(line % banks ^ row) % banks] + (row,): line - start
                for row, heads in self._row_heads(frame)
                for line in heads
            }
        return {
            coords[(line + row) % banks] + (row,): line - start
            for row, heads in self._row_heads(frame)
            for line in heads
        }

    def ddr_to_line(self, address: DdrAddress) -> int:
        banks = self._banks
        permuted = self.geometry.bank_index(address)
        row = address.row
        # the XOR is its own inverse; the rotation is undone by subtracting
        if self._xor:
            bank_flat = (permuted ^ row) % banks
        else:
            bank_flat = (permuted - row) % banks
        return (row * self._cols + address.column) * banks + bank_flat


class SubarrayIsolatedInterleaving(AddressMapper):
    """The paper's primitive (§4.1, Fig. 2): full cross-bank interleaving
    with per-domain subarray confinement.

    Frames are bound to a *subarray group* — one subarray index applied in
    every bank.  Within the group, a frame's lines rotate across all banks
    (bank-level parallelism preserved) and pack densely into the group's
    rows.  The host OS binds domains to groups via :meth:`bind_domain` and
    declares frame ownership via :meth:`assign_frame`.  A frame touched
    before any assignment is placed lazily into the default group
    ``frame % subarrays`` (the "indirect specification" path of §4.1:
    placement follows from the physical frame number alone).  Once placed,
    a frame's location never changes until :meth:`release_frame`, so the
    established map is fixed and invertible.
    """

    name = "subarray-isolated"
    interleaves = True
    isolates_domains = True

    def __init__(self, geometry: DramGeometry, page_bytes: int = 4096) -> None:
        super().__init__(geometry, page_bytes)
        if self.lines_per_page % geometry.banks_total != 0:
            raise ValueError(
                "subarray-isolated interleaving requires lines-per-page to be "
                f"a multiple of the bank count ({geometry.banks_total}); "
                f"got {self.lines_per_page}"
            )
        self.lines_per_bank_per_frame = self.lines_per_page // geometry.banks_total
        group_lines = (
            geometry.rows_per_subarray
            * geometry.columns_per_row
            * geometry.banks_total
        )
        self.frames_per_group = group_lines // self.lines_per_page
        self._frame_group: Dict[int, int] = {}
        self._frame_slot: Dict[int, int] = {}
        self._slot_frame: Dict[tuple, int] = {}  # (group, slot) -> frame
        self._group_slots_free: Dict[int, List[int]] = {
            g: list(range(self.frames_per_group - 1, -1, -1))
            for g in range(geometry.subarrays_per_bank)
        }
        self._domain_group: Dict[int, int] = {}
        self._default_groups = geometry.subarrays_per_bank
        self._rows_per_subarray = geometry.rows_per_subarray

    # -- domain/frame management (driven by the host OS) ----------------

    def bind_domain(self, domain: int, group: Optional[int] = None) -> int:
        """Bind a trust domain to a subarray group; auto-pick when
        ``group`` is None.  Returns the group.

        Auto-picking prefers groups with no bound domain (sharing a
        group means no isolation between the sharers); among candidates
        it takes the one with the most free slots.  When every group is
        already bound — more tenants than subarrays — the least loaded
        group is reused, which is the §4.1 capacity reality: isolation
        granularity is limited by the subarray count.
        """
        if domain in self._domain_group:
            return self._domain_group[domain]
        if group is None:
            taken = set(self._domain_group.values())
            candidates = [
                g for g in self._group_slots_free if g not in taken
            ] or list(self._group_slots_free)
            group = max(
                candidates,
                key=lambda g: len(self._group_slots_free[g]),
            )
        if not 0 <= group < self.geometry.subarrays_per_bank:
            raise ValueError(f"subarray group {group} out of range")
        self._domain_group[domain] = group
        return group

    def group_of_domain(self, domain: int) -> Optional[int]:
        return self._domain_group.get(domain)

    def unbind_domain(self, domain: int) -> None:
        """Release a domain's group binding (the host OS calls this when
        the domain's last frame is freed or the domain is destroyed, so
        the group becomes available for exclusive use by a new tenant).
        The caller must ensure the domain holds no placed frames."""
        self._domain_group.pop(domain, None)

    def assign_frame(self, frame: int, domain: int) -> None:
        """Place ``frame`` into its domain's subarray group.

        Must happen before the frame is accessed (the host OS assigns
        frames at allocation time, exactly as §4.1 prescribes).
        """
        self._check_frame(frame)
        if frame in self._frame_group:
            raise ValueError(f"frame {frame} is already assigned")
        group = self._domain_group.get(domain)
        if group is None:
            group = self.bind_domain(domain)
        self._place(frame, group)

    def release_frame(self, frame: int) -> None:
        """Return a frame's slot to its group (page freed)."""
        group = self._frame_group.pop(frame, None)
        if group is None:
            return
        slot = self._frame_slot.pop(frame)
        del self._slot_frame[(group, slot)]
        self._group_slots_free[group].append(slot)
        # The slot may be re-placed for another frame; drop stale memos.
        self._invalidate_lines(self.lines_of_frame(frame))

    def _place(self, frame: int, group: int) -> None:
        free = self._group_slots_free[group]
        if not free:
            raise MemoryError(f"subarray group {group} is full")
        slot = free.pop()
        self._frame_group[frame] = group
        self._frame_slot[frame] = slot
        self._slot_frame[(group, slot)] = frame

    # -- the bijection ---------------------------------------------------

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        frame, offset = divmod(line, self.lines_per_page)
        if frame not in self._frame_group:
            # lazy first-touch placement: the order of first touches
            # decides the slots
            self._place(frame, frame % self._default_groups)
        slot = self._frame_slot[frame]
        # Pack the frame's lines densely into its slot (a slot never
        # outgrows the group: ``frames_per_group`` bounds it), rotating
        # the starting bank by slot so groups load banks evenly.
        row_in_subarray, column = divmod(
            slot * self.lines_per_bank_per_frame + offset // self._banks,
            self._cols,
        )
        channel, rank, bank = self._bank_coords[(offset + slot) % self._banks]
        return DdrAddress(
            channel,
            rank,
            bank,
            self._frame_group[frame] * self._rows_per_subarray
            + row_in_subarray,
            column,
        )

    def frame_rows(self, frame: int) -> Dict[RowKey, int]:
        # one entry per bank per row of the slot: ``banks`` consecutive
        # offsets share a packed index, and a row holds ``columns``
        # packed indices
        self._check_frame(frame)
        if frame not in self._frame_group:
            self._place(frame, frame % self._default_groups)
        slot = self._frame_slot[frame]
        first_row = self._frame_group[frame] * self._rows_per_subarray
        banks, cols, coords = self._banks, self._cols, self._bank_coords
        packed = slot * self.lines_per_bank_per_frame
        placed = {}
        offset = 0
        while offset < self.lines_per_page:
            row_in_subarray = (packed + offset // banks) // cols
            row = first_row + row_in_subarray
            for head in range(offset, offset + banks):
                placed[coords[(head + slot) % banks] + (row,)] = head
            offset = ((row_in_subarray + 1) * cols - packed) * banks
        return placed

    def ddr_to_line(self, address: DdrAddress) -> int:
        group = self.geometry.subarray_of_row(address.row)
        row_in_subarray = address.row - group * self.geometry.rows_per_subarray
        packed = (
            row_in_subarray * self.geometry.columns_per_row + address.column
        )
        slot = packed // self.lines_per_bank_per_frame
        within_bank = packed % self.lines_per_bank_per_frame
        try:
            frame = self._slot_frame[(group, slot)]
        except KeyError:
            raise KeyError(
                f"no frame is mapped at subarray group {group}, slot {slot}; "
                "ddr_to_line is only defined for addresses the forward map "
                "has produced"
            ) from None
        bank_flat = self.geometry.bank_index(address)
        offset = (
            within_bank * self.geometry.banks_total
            + (bank_flat - slot) % self.geometry.banks_total
        )
        return frame * self.lines_per_page + offset


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


MAPPING_SCHEMES = {
    cls.name: cls
    for cls in (
        LinearMapping,
        CachelineInterleaving,
        PermutationInterleaving,
        SubarrayIsolatedInterleaving,
    )
}


def make_mapper(
    scheme: str, geometry: DramGeometry, page_bytes: int = 4096
) -> AddressMapper:
    """Instantiate a mapping scheme by name."""
    try:
        cls = MAPPING_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(MAPPING_SCHEMES))
        raise KeyError(f"unknown mapping scheme {scheme!r}; known: {known}") from None
    return cls(geometry, page_bytes)
