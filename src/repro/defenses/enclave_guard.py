"""Enclave-cooperative defenses (§4.4).

When enclave memory is *not* integrity-checked, the enclave itself needs
the paper's three defense classes, adapted to its trust model (the host
OS is untrusted, only the enclave and hardware are):

* **isolation** — the CPU reports the physical placement of the
  enclave's pages so the enclave can verify it sits alone in its
  subarray (:meth:`EnclaveGuardDefense.verify_placement`, mirroring how
  SGX enclaves already verify virtual→physical mappings);
* **frequency** — the CPU forwards ACT interrupts that concern the
  enclave's neighbourhood directly to the enclave, which can count them
  and decide to request a remap or peacefully exit
  (:attr:`~repro.hostos.enclave.EnclaveRuntime.act_warnings`);
* **refresh** — in subarray-isolated memory the enclave holds a grant to
  issue ``refresh`` on addresses in its own address space, repairing its
  potential victims without trusting the host.

``EnclaveGuardDefense`` is the hardware-side glue: it watches precise
ACT interrupts and performs the forwarding/refresh the paper sketches.
The evacuation policy (remap request after ``evacuate_after`` warnings)
is also modelled, executed by the (untrusted but DoS-capable-anyway)
host on the enclave's behalf.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.primitives import Primitive
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.cpu.isa import ExecutionContext
from repro.defenses.base import Defense
from repro.mc.counters import ActInterrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System


class EnclaveGuardDefense(Defense):
    """Forward ACT warnings to enclaves; let granted enclaves refresh
    their own victims; evacuate persistent targets."""

    name = "enclave-guard"
    traits = DefenseTraits(
        mitigation_class=MitigationClass.REFRESH,
        location="software",
        stops_cross_domain=True,
        stops_intra_domain=False,  # the enclave defends itself only
        covers_dma=True,
        scales_with_density=True,
    )
    requires = (Primitive.PRECISE_ACT_INTERRUPT,)

    def __init__(
        self,
        interrupt_fraction: float = 0.125,
        jitter_fraction: float = 0.25,
        grant_refresh: bool = True,
        evacuate_after: int = 1 << 30,
    ) -> None:
        super().__init__()
        if not 0.0 < interrupt_fraction < 1.0:
            raise ValueError("interrupt_fraction must be in (0, 1)")
        self.interrupt_fraction = interrupt_fraction
        self.jitter_fraction = jitter_fraction
        self.grant_refresh = grant_refresh
        self.evacuate_after = evacuate_after
        self._in_handler = False
        self._evacuated: Dict[int, bool] = {}

    def _wire(self, system: "System") -> None:
        if self.grant_refresh:
            system.primitives.require(Primitive.REFRESH_INSTRUCTION)
        threshold = max(2, int(system.profile.mac * self.interrupt_fraction))
        jitter = int(threshold * self.jitter_fraction)
        system.controller.configure_counters(
            threshold, precise=True, reset_jitter=jitter
        )
        system.controller.subscribe_interrupts(self._on_interrupt)

    # ------------------------------------------------------------------
    # Interrupt path
    # ------------------------------------------------------------------

    def _on_interrupt(self, interrupt: ActInterrupt) -> None:
        system = self.system
        assert system is not None
        if self._in_handler:
            self.bump("masked_interrupts")
            return
        if interrupt.physical_line is None:
            self.bump("useless_imprecise_interrupts")
            return
        self._in_handler = True
        try:
            self._handle(interrupt)
        finally:
            self._in_handler = False

    def _handle(self, interrupt: ActInterrupt) -> None:
        system = self.system
        aggressor_row = system.row_of_physical_line(interrupt.physical_line)
        radius = system.profile.blast_radius
        victims = system.logical_neighbor_rows(aggressor_row, radius)
        threatened = set()
        for victim in victims:
            threatened.update(system.allocator.domains_in_row(victim))
        for asid in threatened:
            runtime = system.enclaves.get(asid)
            if runtime is None or runtime.locked_up:
                continue
            runtime.on_act_interrupt_forwarded()
            self.bump("warnings_forwarded")
            if self.grant_refresh:
                self._enclave_refresh(asid, victims, interrupt.time_ns)
            if runtime.should_evacuate(self.evacuate_after):
                self._evacuate(asid, victims, interrupt.time_ns)

    # ------------------------------------------------------------------
    # Enclave-side actions
    # ------------------------------------------------------------------

    def _enclave_refresh(self, asid: int, victim_rows, now: int) -> None:
        """§4.4: the enclave refreshes the threatened rows of *its own*
        address space (the grant never reaches foreign rows)."""
        system = self.system
        context = ExecutionContext(asid=asid, enclave_refresh_grant=True)
        for row in victim_rows:
            if asid not in system.allocator.domains_in_row(row):
                continue
            virtual_line = self._own_virtual_line_in_row(asid, row)
            if virtual_line is None:
                continue
            system.isa.refresh(context, virtual_line, now)
            self.bump("enclave_refreshes")

    def _evacuate(self, asid: int, victim_rows, now: int) -> None:
        """After enough warnings, the enclave requests a remap of its
        threatened pages (§4.4's option (a))."""
        from repro.defenses.frequency import remap_page_of_line

        system = self.system
        if self._evacuated.get(asid):
            return
        moved = 0
        for row in victim_rows:
            if asid not in system.allocator.domains_in_row(row):
                continue
            for frame in sorted(system.frames_in_row(row)):
                if system.allocator.owner_of(frame) != asid:
                    continue
                line = frame * system.mmu.lines_per_page
                if remap_page_of_line(system, line, now) is not None:
                    moved += 1
        if moved:
            self._evacuated[asid] = True
            self.bump("enclave_pages_evacuated", moved)

    def _own_virtual_line_in_row(self, asid: int, row) -> Optional[int]:
        """Find a virtual line of ``asid`` living in the given row (the
        enclave refreshes via its own virtual addresses)."""
        system = self.system
        channel, rank, bank, row_index = row
        from repro.dram.geometry import DdrAddress

        table = system.mmu.table(asid)
        lines_per_page = system.mmu.lines_per_page
        frame_set = {mapping.frame: mapping.virtual_page
                     for mapping in table.mappings()}
        for column in range(system.geometry.columns_per_row):
            address = DdrAddress(channel, rank, bank, row_index, column)
            try:
                line = system.mapper.ddr_to_line(address)
            except KeyError:
                continue
            frame = system.mapper.frame_of_line(line)
            virtual_page = frame_set.get(frame)
            if virtual_page is not None:
                offset = line - frame * lines_per_page
                return virtual_page * lines_per_page + offset
        return None


def verify_placement(system: "System", handle: "DomainHandle") -> bool:
    """§4.4 isolation check, from the enclave's point of view: the CPU
    reports the subarray(s) backing the enclave; the enclave verifies it
    shares them with no other domain."""
    groups = {
        system.geometry.subarray_of_row(row[3]) for row in handle.rows()
    }
    if len(groups) != 1:
        return False
    for other in system.registry:
        if other.asid == handle.asid:
            continue
        other_frames = system.allocator.frames_of(other.asid)
        for frame in other_frames:
            for row in system.mapper.rows_of_frame(frame):
                if system.geometry.subarray_of_row(row[3]) in groups:
                    return False
    return True
