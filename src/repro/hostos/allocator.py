"""The host OS page-frame allocator, with isolation-aware policies.

The allocator is where isolation-centric defenses live in software
(§2.2, §4.1).  Four policies are modelled:

``DEFAULT``
    First-fit, domain-oblivious — today's allocator.  Under any mapping,
    frames from different tenants end up adjacent in DRAM.

``BANK_PARTITION``
    PALLOC-style [61]: each domain gets disjoint banks.  Only possible
    when interleaving is disabled (``LinearMapping``); under interleaved
    mappings every frame touches every bank, so the policy refuses to
    operate — this is the §4.1 conflict between isolation and
    interleaving, reproduced as a hard error.

``GUARD_ROWS``
    ZebRAM-style [34]: ``blast_radius`` unallocated guard rows between
    any two frames of different domains.  Also requires row-contiguous
    (linear) mapping, and burns capacity on guards.

``SUBARRAY_AWARE``
    The paper's proposal (§4.1): requires the subarray-isolated
    interleaving primitive; the allocator simply binds each domain to a
    subarray group and lets the MC place frames.  Interleaving stays on.

The allocator also answers ``domains_in_row`` — which domains own data in
a given (logical) DRAM row — which the harness composes with the internal
row remap to attribute bit flips.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.mc.address_map import AddressMapper, SubarrayIsolatedInterleaving

RowKey = Tuple[int, int, int, int]


class AllocationPolicy(enum.Enum):
    DEFAULT = "default"
    BANK_PARTITION = "bank-partition"
    GUARD_ROWS = "guard-rows"
    SUBARRAY_AWARE = "subarray-aware"


class PolicyUnsupportedError(Exception):
    """The chosen policy cannot work on the configured address mapping."""


class OutOfMemoryError(Exception):
    """No frame satisfies the policy's constraints."""


class PageAllocator:
    """Frame allocation under one of the isolation policies.

    Allocation is first fit: the lowest-numbered admissible free frame
    wins.  The allocator is incremental, so a probe is a few lookups:

    * each frame's rows (and, under bank partitioning, its banks) come
      from the mapper's closed-form ``frame_rows`` once and are cached;
      only frames released by the subarray-isolated mapper, which may
      place them elsewhere next time, drop their entry;
    * free frames are a one-byte-per-frame map, scanned in ascending
      order by ``bytearray.find`` (in C);
    * under bank partitioning, a frame with a line in another domain's
      bank sends the scan past every frame of that bank;
    * under guard rows, a per-row map of the domains with data within
      ``guard_radius`` rows (subarray-clipped, as
      :meth:`~repro.dram.geometry.DramGeometry.neighbors_within`) is kept
      up to date on take, free and retire, so admissibility and
      :meth:`capacity_overhead` never re-translate a frame.
    """

    def __init__(
        self,
        mapper: AddressMapper,
        policy: AllocationPolicy = AllocationPolicy.DEFAULT,
        guard_radius: int = 1,
    ) -> None:
        self.mapper = mapper
        self.policy = policy
        self.guard_radius = guard_radius
        self._owner: Dict[int, int] = {}  # frame -> asid
        # one byte per frame, 1 while free (8 KB at 8,192 frames, where
        # a set of the free frame numbers takes about 750 KB)
        self._free = bytearray(b"\x01") * mapper.total_frames
        self._bank_owner: Dict[int, int] = {}  # flat bank -> asid (partition)
        # row_key -> {asid: number of allocated frames with data in the
        # row} — reference counts so free() can retract attribution.
        self._row_domains: Dict[RowKey, Dict[int, int]] = {}
        # guard rows: row_key -> {asid: rows within guard_radius of it
        # (itself included) holding that domain's data}
        self._guarded: Dict[RowKey, Dict[int, int]] = {}
        # frame -> rows / banks memos: a frame's placement is stable
        # until the subarray mapper releases it, and bank partitioning
        # never runs on that mapper
        self._frame_rows: Dict[int, FrozenSet[RowKey]] = {}
        self._frame_banks: Dict[int, FrozenSet[int]] = {}
        # frames permanently taken out of service (remap audit, §4.1)
        self._retired: Set[int] = set()
        self._validate_policy()

    def rows_of_frame(self, frame: int) -> FrozenSet[RowKey]:
        """Row keys the frame's lines touch, translated once per
        placement and cached."""
        rows = self._frame_rows.get(frame)
        if rows is None:
            rows = frozenset(self.mapper.rows_of_frame(frame))
            self._frame_rows[frame] = rows
        return rows

    def _banks_of_frame(self, frame: int) -> FrozenSet[int]:
        banks = self._frame_banks.get(frame)
        if banks is None:
            banks = frozenset(self.mapper.banks_of_frame(frame))
            self._frame_banks[frame] = banks
        return banks

    # ------------------------------------------------------------------
    # Policy feasibility (the §4.1 conflict, surfaced at construction)
    # ------------------------------------------------------------------

    def _validate_policy(self) -> None:
        if self.policy in (AllocationPolicy.BANK_PARTITION, AllocationPolicy.GUARD_ROWS):
            if self.mapper.interleaves:
                raise PolicyUnsupportedError(
                    f"{self.policy.value} requires interleaving to be disabled "
                    f"(mapping {self.mapper.name!r} spreads every page across "
                    "banks); §4.1 — this is the performance-vs-isolation "
                    "conflict the subarray primitive resolves"
                )
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            if not isinstance(self.mapper, SubarrayIsolatedInterleaving):
                raise PolicyUnsupportedError(
                    "subarray-aware allocation requires the subarray-isolated "
                    "interleaving primitive in the memory controller (§4.1)"
                )
        if self.guard_radius < 1:
            raise ValueError("guard_radius must be >= 1")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        asid: int,
        count: int = 1,
        avoid_rows: Optional[FrozenSet[RowKey]] = None,
    ) -> List[int]:
        """Allocate ``count`` frames for domain ``asid``.

        ``avoid_rows`` soft-excludes frames touching the given DRAM rows
        — the destination-rotation hook ACT wear-leveling needs (§4.2):
        without it consecutive move targets cluster into one row and
        re-concentrate the activations the move was meant to disperse.
        When no frame avoids the rows, the constraint is dropped rather
        than failing (availability beats dispersal).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        frames = []
        try:
            for _ in range(count):
                frames.append(self._allocate_one(asid, avoid_rows))
        except OutOfMemoryError:
            for frame in frames:
                self.free(frame)
            raise
        return frames

    def free(self, frame: int) -> None:
        asid = self._owner.pop(frame, None)
        if asid is None:
            raise KeyError(f"frame {frame} is not allocated")
        self._free[frame] = 1
        self._retract(frame, asid)
        if isinstance(self.mapper, SubarrayIsolatedInterleaving):
            # the slot may be re-placed elsewhere on the next assignment
            del self._frame_rows[frame]
            self.mapper.release_frame(frame)
        if self.policy is AllocationPolicy.BANK_PARTITION:
            remaining = {
                bank
                for other, owner in self._owner.items()
                if owner == asid
                for bank in self._banks_of_frame(other)
            }
            for bank in list(self._bank_owner):
                if self._bank_owner[bank] == asid and bank not in remaining:
                    del self._bank_owner[bank]
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            # Release the domain's subarray-group binding once its last
            # frame is gone, so a future tenant can claim the group
            # exclusively.
            if asid not in self._owner.values():
                assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
                self.mapper.unbind_domain(asid)

    def retire(self, frame: int) -> None:
        """Permanently take ``frame`` out of service.

        Used by the §4.1 remap audit: a frame whose rows are internally
        remapped across a subarray boundary is treacherous *forever*
        (remaps are a manufacturing property), so after evacuating its
        data the frame must never be handed out again — and, under
        subarray-isolated mapping, its placement slot must stay occupied
        so no future frame inherits the same escaping row.
        """
        asid = self._owner.pop(frame, None)
        if asid is None:
            raise KeyError(f"frame {frame} is not allocated")
        self._retract(frame, asid)
        self._retired.add(frame)

    @property
    def retired_frames(self) -> int:
        return len(self._retired)

    # ------------------------------------------------------------------
    # Attribution and introspection
    # ------------------------------------------------------------------

    def owner_of(self, frame: int) -> Optional[int]:
        return self._owner.get(frame)

    def frames_of(self, asid: int) -> List[int]:
        return sorted(f for f, owner in self._owner.items() if owner == asid)

    def domains_in_row(self, row_key: RowKey) -> FrozenSet[int]:
        """Domains whose data currently lives in the given *logical* row."""
        return frozenset(self._row_domains.get(row_key, frozenset()))

    @property
    def free_frames(self) -> int:
        return self._free.count(1)

    @property
    def allocated_frames(self) -> int:
        return len(self._owner)

    def capacity_overhead(self) -> float:
        """Fraction of total frames rendered unusable by the policy so
        far (guard rows etc.) — 0.0 for policies without waste.

        A free frame is unusable when no domain holding frames could
        claim it."""
        total = self.mapper.total_frames
        if self.policy is not AllocationPolicy.GUARD_ROWS or not total:
            return 0.0
        current = set(self._owner.values())
        unusable = 0
        if current:
            admissible = self._guard_admissible
            free = self._free
            frame = free.find(1)
            while frame >= 0:
                if not any(admissible(frame, asid) for asid in current):
                    unusable += 1
                frame = free.find(1, frame + 1)
        return unusable / total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _allocate_one(
        self, asid: int, avoid_rows: Optional[FrozenSet[RowKey]] = None
    ) -> int:
        fallback = None
        free = self._free
        admissible = self._admissible
        partition = self.policy is AllocationPolicy.BANK_PARTITION
        frame = free.find(1)
        while frame >= 0:
            if admissible(frame, asid):
                if not avoid_rows or self.rows_of_frame(frame).isdisjoint(
                    avoid_rows
                ):
                    return self._take(frame, asid)
                if fallback is None:
                    fallback = frame
                frame += 1
            elif partition:
                frame = self._past_foreign_bank(frame, asid)
            else:
                frame += 1
            frame = free.find(1, frame)
        if fallback is not None:
            return self._take(fallback, asid)
        raise OutOfMemoryError(
            f"no frame satisfies policy {self.policy.value} for ASID {asid}"
        )

    def _take(self, frame: int, asid: int) -> int:
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
            self.mapper.assign_frame(frame, asid)
        self._free[frame] = 0
        self._owner[frame] = asid
        if self.policy is AllocationPolicy.BANK_PARTITION:
            for bank in self._banks_of_frame(frame):
                self._bank_owner[bank] = asid
        guard_rows = self.policy is AllocationPolicy.GUARD_ROWS
        for row in self.rows_of_frame(frame):
            counts = self._row_domains.setdefault(row, {})
            held = counts.get(asid, 0)
            counts[asid] = held + 1
            if guard_rows and not held:
                self._guard(row, asid, 1)
        return frame

    def _retract(self, frame: int, asid: int) -> None:
        """Withdraw ``asid``'s attribution of the rows of ``frame``."""
        guard_rows = self.policy is AllocationPolicy.GUARD_ROWS
        for row in self.rows_of_frame(frame):
            counts = self._row_domains.get(row)
            if counts is None:
                continue
            held = counts.get(asid, 1) - 1
            if held > 0:
                counts[asid] = held
                continue
            if counts.pop(asid, None) is not None and guard_rows:
                self._guard(row, asid, -1)
            if not counts:
                del self._row_domains[row]

    def _guard(self, row: RowKey, asid: int, delta: int) -> None:
        """``asid`` starts (``delta=1``) or stops (``-1``) holding data in
        ``row``: update the guard map of every row within the radius."""
        channel, rank, bank, index = row
        per_subarray = self.mapper.geometry.rows_per_subarray
        first = index - index % per_subarray
        low = max(first, index - self.guard_radius)
        high = min(first + per_subarray - 1, index + self.guard_radius)
        guarded = self._guarded
        for near in range(low, high + 1):
            key = (channel, rank, bank, near)
            counts = guarded.setdefault(key, {})
            held = counts.get(asid, 0) + delta
            if held:
                counts[asid] = held
            else:
                del counts[asid]
                if not counts:
                    del guarded[key]

    def _admissible(self, frame: int, asid: int) -> bool:
        if self.policy is AllocationPolicy.DEFAULT:
            return True
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            # Feasibility = the domain's group still has slots; the MC
            # enforces placement.  Probe without mutating.
            assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
            group = self.mapper.group_of_domain(asid)
            if group is None:
                return True  # binding happens on first assign
            return len(self.mapper._group_slots_free[group]) > 0
        if self.policy is AllocationPolicy.BANK_PARTITION:
            bank_owner = self._bank_owner
            return all(
                bank_owner.get(bank, asid) == asid
                for bank in self._banks_of_frame(frame)
            )
        if self.policy is AllocationPolicy.GUARD_ROWS:
            return self._guard_admissible(frame, asid)
        raise AssertionError(f"unhandled policy {self.policy}")

    def _past_foreign_bank(self, frame: int, asid: int) -> int:
        """The first frame after the bank of ``frame`` that another
        domain owns: no frame with a line in that bank is admissible,
        so first fit jumps over them instead of probing each one.  The
        policy only runs on the linear map (it refuses interleaving
        maps), whose ``frames_of_bank`` is closed form."""
        bank_owner = self._bank_owner
        for bank in self._banks_of_frame(frame):
            if bank_owner.get(bank, asid) != asid:
                return self.mapper.frames_of_bank(bank).stop
        raise AssertionError(f"frame {frame} has no foreign bank")

    def _guard_admissible(self, frame: int, asid: int) -> bool:
        """No row of ``frame`` may lie within ``guard_radius`` rows of a
        row holding another domain's data (same bank, same subarray).
        Rows can be shared between frames under some mappings, so the
        frame's own rows count too."""
        guarded = self._guarded
        for row in self.rows_of_frame(frame):
            owners = guarded.get(row)
            if owners and (len(owners) > 1 or asid not in owners):
                return False
        return True
