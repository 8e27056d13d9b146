"""Reference allocator: the original full-scan ``PageAllocator``.

Every allocation sorts the free set and probes every free frame in
turn, every probe re-derives the frame's banks, and every capacity
query re-checks every frame: the simple form of the policies, kept as
the reference.  Rows and banks come from the mapper's per-line oracle,
``frame_addresses``, never from its closed-form ``frame_rows``, so the
reference stays independent of the code under test.  The differential
test drives it and the incremental
:class:`~repro.hostos.allocator.PageAllocator` with the same scripts and
asserts they choose the same frames, because those choices decide every
isolation row of EXPERIMENTS.md.
"""

from repro.hostos.allocator import AllocationPolicy, OutOfMemoryError
from repro.mc.address_map import SubarrayIsolatedInterleaving


class ScanAllocator:
    def __init__(self, mapper, policy=AllocationPolicy.DEFAULT, guard_radius=1):
        self.mapper = mapper
        self.policy = policy
        self.guard_radius = guard_radius
        self._owner = {}
        self._free = set(range(mapper.total_frames))
        self._bank_owner = {}
        self._row_domains = {}
        self._frame_rows = {}

    def rows_of_frame(self, frame):
        rows = self._frame_rows.get(frame)
        if rows is None:
            rows = frozenset(
                address.row_key()
                for address in self.mapper.frame_addresses(frame)
            )
            self._frame_rows[frame] = rows
        return rows

    def _banks_of_frame(self, frame):
        bank_index = self.mapper.geometry.bank_index
        return {
            bank_index(address)
            for address in self.mapper.frame_addresses(frame)
        }

    def allocate(self, asid, count=1, avoid_rows=None):
        frames = []
        try:
            for _ in range(count):
                frames.append(self._allocate_one(asid, avoid_rows))
        except OutOfMemoryError:
            for frame in frames:
                self.free(frame)
            raise
        return frames

    def free(self, frame):
        asid = self._owner.pop(frame, None)
        if asid is None:
            raise KeyError(frame)
        self._free.add(frame)
        rows = self.rows_of_frame(frame)
        self._frame_rows.pop(frame, None)
        if isinstance(self.mapper, SubarrayIsolatedInterleaving):
            self.mapper.release_frame(frame)
        self._retract(rows, asid)
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
            if not any(owner == asid for owner in self._owner.values()):
                self.mapper.unbind_domain(asid)

    def retire(self, frame):
        asid = self._owner.pop(frame, None)
        if asid is None:
            raise KeyError(frame)
        self._retract(self.rows_of_frame(frame), asid)

    def _retract(self, rows, asid):
        for row in rows:
            counts = self._row_domains.get(row)
            if counts is None:
                continue
            counts[asid] = counts.get(asid, 1) - 1
            if counts[asid] <= 0:
                counts.pop(asid, None)
            if not counts:
                del self._row_domains[row]

    def frames_of(self, asid):
        return sorted(f for f, owner in self._owner.items() if owner == asid)

    def domains_in_row(self, row_key):
        return frozenset(self._row_domains.get(row_key, frozenset()))

    @property
    def free_frames(self):
        return len(self._free)

    def capacity_overhead(self):
        usable = self.mapper.total_frames
        unusable = sum(1 for f in range(usable) if self._blocked(f))
        return unusable / usable if usable else 0.0

    def _allocate_one(self, asid, avoid_rows=None):
        fallback = None
        for frame in sorted(self._free):
            if not self._admissible(frame, asid):
                continue
            if avoid_rows and any(
                row in avoid_rows for row in self.rows_of_frame(frame)
            ):
                if fallback is None:
                    fallback = frame
                continue
            return self._take(frame, asid)
        if fallback is not None:
            return self._take(fallback, asid)
        raise OutOfMemoryError(asid)

    def _take(self, frame, asid):
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            self.mapper.assign_frame(frame, asid)
        self._free.discard(frame)
        self._owner[frame] = asid
        if self.policy is AllocationPolicy.BANK_PARTITION:
            for bank in self._banks_of_frame(frame):
                self._bank_owner[bank] = asid
        for row in self.rows_of_frame(frame):
            counts = self._row_domains.setdefault(row, {})
            counts[asid] = counts.get(asid, 0) + 1
        return frame

    def _admissible(self, frame, asid):
        if self.policy is AllocationPolicy.DEFAULT:
            return True
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            group = self.mapper.group_of_domain(asid)
            if group is None:
                return True
            return len(self.mapper._group_slots_free[group]) > 0
        if self.policy is AllocationPolicy.BANK_PARTITION:
            return all(
                self._bank_owner.get(bank, asid) == asid
                for bank in self._banks_of_frame(frame)
            )
        return self._guard_admissible(frame, asid)

    def _guard_admissible(self, frame, asid):
        geometry = self.mapper.geometry
        for address in self.mapper.frame_addresses(frame):
            for neighbor_row in geometry.neighbors_within(
                address.row, self.guard_radius
            ):
                key = (address.channel, address.rank, address.bank, neighbor_row)
                owners = self._row_domains.get(key)
                if owners and any(owner != asid for owner in owners):
                    return False
            owners = self._row_domains.get(address.row_key())
            if owners and any(owner != asid for owner in owners):
                return False
        return True

    def _blocked(self, frame):
        if frame not in self._free:
            return False
        if self.policy is not AllocationPolicy.GUARD_ROWS:
            return False
        current = set(self._owner.values())
        return bool(current) and not any(
            self._guard_admissible(frame, asid) for asid in current
        )
