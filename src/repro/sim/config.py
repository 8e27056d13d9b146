"""System configuration: one declarative object builds a whole platform.

A config pins every degree of freedom an experiment sweeps: DRAM
generation (MAC/blast radius), simulation scale, address-mapping scheme,
allocation policy, which proposed primitives the hardware exposes, ACT
counter configuration, cache shape, internal row remapping, and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.core.primitives import PrimitiveSet
from repro.hostos.allocator import AllocationPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation only; the faults
    # package is imported lazily by System to avoid a config<->faults cycle
    from repro.faults.config import FaultConfig

#: valid values for :attr:`SystemConfig.invariant_level`
INVARIANT_LEVELS = ("off", "cheap", "deep")

#: Default scale factor: refresh window and MAC shrink by this much so a
#: full window is a few hundred microseconds of simulated time instead of
#: 64 ms.  Ratios (ACTs-to-flip vs ACTs-per-window) are preserved.
DEFAULT_SCALE = 64


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`~repro.sim.system.System`."""

    # DRAM
    generation: str = "ddr4-new"
    scale: int = DEFAULT_SCALE
    remap_fraction: float = 0.0  # DRAM-internal row remaps (§4.1 threat)
    remap_within_subarray: bool = False

    # Memory controller
    mapping: str = "cacheline-interleave"
    act_threshold: int = 1 << 20  # effectively "interrupts off" by default
    precise_act_interrupts: bool = False
    act_reset_jitter: int = 0
    page_policy: str = "open"  # "open" or "closed" row-buffer policy
    channels: int = 1  # overrides the preset geometry's channel count
    # Refresh-rate scaling: every row refreshed this many times per
    # (scaled) retention window — the industry's blunt countermeasure,
    # modelled so E5 can show it cannot keep up with density (§3).
    refresh_multiplier: int = 1
    # "all-bank" (REFab) or "per-bank" (REFpb) refresh bursts
    refresh_mode: str = "all-bank"

    # Platform capabilities
    primitives: PrimitiveSet = field(default_factory=PrimitiveSet.none)

    # Host OS
    allocation_policy: AllocationPolicy = AllocationPolicy.DEFAULT
    page_bytes: int = 4096

    # LLC
    cache_sets: int = 256
    cache_ways: int = 8
    max_locked_ways: int = 2

    # Reproducibility
    seed: int = 1234

    # Fault injection & invariant checking (repro.faults).  ``faults``
    # describes a degraded-hardware scenario (None = healthy hardware);
    # ``invariant_level`` arms the bookkeeping checkers: "off" (free),
    # "cheap" (polled at drain points), or "deep" (inline hot-path
    # probes — for debugging and the fault matrix, not benchmarks).
    faults: Optional["FaultConfig"] = None
    invariant_level: str = "off"

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if not 0.0 <= self.remap_fraction <= 1.0:
            raise ValueError("remap_fraction must be in [0, 1]")
        if self.page_bytes < 64:
            raise ValueError("page_bytes must be >= one cache line")
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page policy {self.page_policy!r}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.refresh_multiplier < 1:
            raise ValueError("refresh_multiplier must be >= 1")
        if self.refresh_mode not in ("all-bank", "per-bank"):
            raise ValueError(f"unknown refresh mode {self.refresh_mode!r}")
        if self.invariant_level not in INVARIANT_LEVELS:
            raise ValueError(
                f"unknown invariant level {self.invariant_level!r}; "
                f"known: {INVARIANT_LEVELS}"
            )

    # ------------------------------------------------------------------
    # Named variants used across experiments
    # ------------------------------------------------------------------

    def with_primitives(self, primitives: PrimitiveSet) -> "SystemConfig":
        return replace(self, primitives=primitives)

    def with_mapping(self, mapping: str) -> "SystemConfig":
        return replace(self, mapping=mapping)

    def with_policy(self, policy: AllocationPolicy) -> "SystemConfig":
        return replace(self, allocation_policy=policy)

    def with_generation(self, generation: str) -> "SystemConfig":
        return replace(self, generation=generation)


#: the platform presets by name, cheapest first (the CLI's ``--platform``)
PLATFORMS = ("legacy", "legacy+primitives", "proposed", "ideal")


def platform_config(name: str, **overrides) -> SystemConfig:
    """The named platform preset (one of :data:`PLATFORMS`) with keyword
    overrides; ``legacy+primitives`` is today's hardware plus the
    proposed MC primitives."""
    if name == "legacy":
        return legacy_platform(**overrides)
    if name == "legacy+primitives":
        return legacy_platform(**overrides).with_primitives(
            PrimitiveSet.proposed()
        )
    if name == "proposed":
        return proposed_platform(**overrides)
    if name == "ideal":
        return ideal_platform(**overrides)
    raise ValueError(f"unknown platform {name!r}; known: {PLATFORMS}")


def legacy_platform(**overrides) -> SystemConfig:
    """Today's hardware: conventional interleaving, imprecise counters,
    no proposed primitives."""
    return SystemConfig(**overrides)


def proposed_platform(**overrides) -> SystemConfig:
    """The paper's platform (§4): all MC primitives, subarray-isolated
    interleaving available, precise interrupts on."""
    defaults = dict(
        mapping="subarray-isolated",
        allocation_policy=AllocationPolicy.SUBARRAY_AWARE,
        primitives=PrimitiveSet.proposed(),
        precise_act_interrupts=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def ideal_platform(**overrides) -> SystemConfig:
    """§5's long-term world: proposed platform plus DRAM cooperation."""
    defaults = dict(
        mapping="subarray-isolated",
        allocation_policy=AllocationPolicy.SUBARRAY_AWARE,
        primitives=PrimitiveSet.ideal(),
        precise_act_interrupts=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)
