"""Metrics: one summary object per simulation run.

Collects the architecturally visible performance surface (controller and
cache statistics), the oracle's security outcome (flips by domain
relation), and per-defense counters/costs — the three ingredient groups
every experiment table is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.defenses.base import Defense
    from repro.sim.system import System


@dataclass
class RunMetrics:
    """Snapshot of one finished run."""

    label: str
    elapsed_ns: int
    # security (oracle)
    total_flips: int
    cross_domain_flips: int
    intra_domain_flips: int
    # performance (architectural)
    requests: int
    acts: int
    row_hit_rate: float
    average_latency_ns: float
    throttle_stalls_ns: int
    targeted_refreshes: int
    neighbor_refresh_commands: int
    uncore_moves: int
    ref_bursts: int
    energy_proxy: float
    cache_hit_rate: float
    # defenses
    defense_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    defense_sram_bits: int = 0
    reserved_capacity_fraction: float = 0.0

    @property
    def secure(self) -> bool:
        """No cross-domain corruption happened."""
        return self.cross_domain_flips == 0

    def throughput_lines_per_us(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.requests * 1000.0 / self.elapsed_ns

    def slowdown_vs(self, baseline: "RunMetrics") -> float:
        """Elapsed-time ratio against a baseline run of identical work."""
        if baseline.elapsed_ns <= 0:
            return 0.0
        return self.elapsed_ns / baseline.elapsed_ns

    def as_row(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "cross_flips": self.cross_domain_flips,
            "intra_flips": self.intra_domain_flips,
            "requests": self.requests,
            "acts": self.acts,
            "row_hit": round(self.row_hit_rate, 3),
            "avg_lat_ns": round(self.average_latency_ns, 1),
            "stalls_us": round(self.throttle_stalls_ns / 1000.0, 1),
            "refreshes": self.targeted_refreshes + self.neighbor_refresh_commands,
            "moves": self.uncore_moves,
            "energy": round(self.energy_proxy, 0),
            "sram_bits": self.defense_sram_bits,
        }


def collect_metrics(
    system: "System",
    label: str,
    elapsed_ns: Optional[int] = None,
    defenses: Optional[List["Defense"]] = None,
) -> RunMetrics:
    """Snapshot a system after a run, reading the controller statistics
    and each defense's counters live."""
    stats = system.controller.stats
    tracker = system.device.tracker
    defenses = defenses or []
    sram = sum(defense.cost().sram_bits for defense in defenses)
    reserved = sum(
        defense.cost().reserved_capacity_fraction for defense in defenses
    )
    return RunMetrics(
        label=label,
        elapsed_ns=elapsed_ns if elapsed_ns is not None else stats.busy_until_ns,
        total_flips=len(tracker.flips),
        cross_domain_flips=len(tracker.cross_domain_flips()),
        intra_domain_flips=len(tracker.intra_domain_flips()),
        requests=stats.requests,
        acts=stats.acts,
        row_hit_rate=stats.row_hit_rate,
        average_latency_ns=stats.average_latency_ns,
        throttle_stalls_ns=stats.throttle_stalls_ns,
        targeted_refreshes=stats.targeted_refreshes,
        neighbor_refresh_commands=stats.neighbor_refresh_commands,
        uncore_moves=stats.uncore_moves,
        ref_bursts=stats.ref_bursts,
        energy_proxy=stats.energy_proxy(),
        cache_hit_rate=system.cache.hit_rate,
        defense_counters={d.name: dict(d.counters) for d in defenses},
        defense_sram_bits=sram,
        reserved_capacity_fraction=reserved,
    )
