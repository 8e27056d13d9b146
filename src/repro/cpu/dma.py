"""A DMA engine: device traffic that bypasses cores, caches, and core
performance counters.

§1 singles out DMA-based Rowhammer (Throwhammer/Nethammer/GuardION-class
attacks) as the blind spot of counter-based software defenses: ANVIL
watches core performance counters, and DMA transfers never touch them.
The MC, by contrast, sees every ACT regardless of origin — which is why
the paper puts its counters there (§4.2).

``DmaEngine`` issues line requests straight to the controller with
``is_dma=True``.  Core PMU emulation (what ANVIL sees) simply never hears
about these requests.
"""

from __future__ import annotations

from typing import Optional

from repro.mc.controller import CompletedRequest, MemoryController, MemoryRequest


class DmaEngine:
    """One bus-mastering device (NIC, GPU, FPGA...) owned by a domain.

    The owning domain matters for attribution: a tenant can direct its
    device's transfers at its own buffers whose DRAM rows neighbour a
    victim's rows — hammering without ever executing a load.
    """

    def __init__(self, controller: MemoryController, domain: Optional[int] = None) -> None:
        self.controller = controller
        self.domain = domain
        self.transfers = 0

    def transfer(
        self, physical_line: int, now: int, is_write: bool = False
    ) -> CompletedRequest:
        """One line-sized device transfer, uncached by construction."""
        self.transfers += 1
        return self.controller.submit(
            MemoryRequest(
                time_ns=now,
                physical_line=physical_line,
                is_write=is_write,
                domain=self.domain,
                is_dma=True,
            )
        )

    def burst(
        self, first_line: int, count: int, now: int, is_write: bool = False
    ) -> int:
        """A contiguous multi-line transfer; returns completion time."""
        if count < 1:
            raise ValueError("count must be >= 1")
        when = now
        for offset in range(count):
            completed = self.transfer(first_line + offset, when, is_write)
            when = completed.ready_at_ns
        return when
