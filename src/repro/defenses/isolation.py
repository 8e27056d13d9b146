"""Isolation-centric defenses: remove cross-domain proximity (§4.1).

``SubarrayIsolationDefense`` — the paper's proposal: subarray-isolated
interleaving in the MC plus subarray-aware allocation in the host OS.
Interleaving (and its bank-level parallelism) stays on; domains can no
longer be DRAM neighbours.  Optionally audits DRAM-internal row remaps
(disclosed by the vendor or inferred by hammer templating, §4.1) and
quarantines frames whose rows escape their subarray.

``BankPartitionDefense`` — PALLOC-style baseline [61]: disjoint banks per
domain.  Requires interleaving disabled, with the >18% performance cost
§4.1 cites; the allocator enforces feasibility.

``GuardRowsDefense`` — ZebRAM-style baseline [34]: blast-radius guard
rows between domains.  Same no-interleaving constraint, plus capacity
sacrificed to guards.

All three share the taxonomy caveat of §2.2: intra-domain disturbance is
*not* prevented (``stops_intra_domain=False``), which E4 verifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.defenses.base import Defense, DefenseCost
from repro.hostos.allocator import AllocationPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


class _PolicyDefense(Defense):
    """Shared base: a defense that is an allocator policy.  Attachment
    verifies the system was *built* with the right policy (allocation
    decisions precede any attach-time fixup)."""

    policy: AllocationPolicy

    def _wire(self, system: "System") -> None:
        if system.allocator.policy is not self.policy:
            raise RuntimeError(
                f"{self.name} requires the system to be built with "
                f"allocation_policy={self.policy.value!r} "
                f"(got {system.allocator.policy.value!r})"
            )


class SubarrayIsolationDefense(_PolicyDefense):
    """The paper's isolation proposal (§4.1, Fig. 2)."""

    name = "subarray-isolation"
    table1_row = ("subarray-isolated interleaving", "subarray-aware allocation")
    policy = AllocationPolicy.SUBARRAY_AWARE
    traits = DefenseTraits(
        mitigation_class=MitigationClass.ISOLATION,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=False,  # the §2.2 caveat
        covers_dma=True,  # placement is origin-agnostic
        scales_with_density=True,
    )
    requires = (Primitive.SUBARRAY_ISOLATED_INTERLEAVING,)

    def audit_internal_remaps(self, remapped_logical_rows: Iterable[Tuple[int, int]]) -> int:
        """§4.1: DRAM may remap a row to a different internal subarray,
        breaking isolation.  Given (bank_index, logical_row) pairs known
        to be remapped — from vendor disclosure or hammer-templating
        inference (:mod:`repro.attacks.adjacency`) — quarantine every
        frame with data in an escaping row.  Returns frames quarantined.
        """
        system = self.system
        assert system is not None
        geometry = system.geometry
        remapper = system.device.remapper
        quarantined = 0
        for bank_index, logical_row in remapped_logical_rows:
            internal = remapper.to_internal(bank_index, logical_row)
            if geometry.same_subarray(logical_row, internal):
                continue  # harmless remap, stays inside the subarray
            channel, rank, bank = geometry.bank_from_index(bank_index)
            row_key = (channel, rank, bank, logical_row)
            # Interleaving packs many frames into one row; every one of
            # them can reach the foreign neighbourhood, so all must move.
            for frame in sorted(system.frames_in_row(row_key)):
                if system.allocator.owner_of(frame) is None:
                    continue
                if self._evacuate_frame(frame):
                    quarantined += 1
        self.bump("frames_quarantined", quarantined)
        return quarantined

    def _evacuate_frame(self, frame: int) -> bool:
        from repro.defenses.frequency import remap_page_of_line

        system = self.system
        assert system is not None
        line = frame * system.mmu.lines_per_page
        result = remap_page_of_line(system, line, now=0, free_old_frame=False)
        if result is None:
            return False
        # Escaping rows stay escaping forever: retire the frame so the
        # allocator never recycles it into the same treacherous row.
        system.allocator.retire(result.vacated_frame)
        return True


class BankPartitionDefense(_PolicyDefense):
    """PALLOC-style bank partitioning [61] — isolation by giving up
    interleaving (and its performance, §4.1)."""

    name = "bank-partition"
    policy = AllocationPolicy.BANK_PARTITION
    traits = DefenseTraits(
        mitigation_class=MitigationClass.ISOLATION,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=False,
        covers_dma=True,
        scales_with_density=True,
    )
    requires: Tuple[Primitive, ...] = ()  # a BIOS toggle, not a primitive


class GuardRowsDefense(_PolicyDefense):
    """ZebRAM-style guard rows [34]: ``b`` dead rows between domains."""

    name = "guard-rows"
    policy = AllocationPolicy.GUARD_ROWS
    traits = DefenseTraits(
        mitigation_class=MitigationClass.ISOLATION,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=False,
        covers_dma=True,
        scales_with_density=False,  # guards ∝ blast radius eat capacity
    )
    requires: Tuple[Primitive, ...] = ()

    def cost(self) -> DefenseCost:
        if self.system is None:
            return DefenseCost()
        return DefenseCost(
            reserved_capacity_fraction=self.system.allocator.capacity_overhead()
        )
