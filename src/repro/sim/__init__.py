"""Simulation assembly: configs, the built platform, the cooperative
engine, and run metrics."""

from repro.sim.config import (
    DEFAULT_SCALE,
    PLATFORMS,
    SystemConfig,
    ideal_platform,
    legacy_platform,
    platform_config,
    proposed_platform,
)
from repro.sim.engine import Engine, EngineResult
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.sim.system import DomainHandle, System, build_system

__all__ = [
    "DEFAULT_SCALE",
    "DomainHandle",
    "Engine",
    "EngineResult",
    "PLATFORMS",
    "RunMetrics",
    "System",
    "SystemConfig",
    "build_system",
    "collect_metrics",
    "ideal_platform",
    "legacy_platform",
    "platform_config",
    "proposed_platform",
]
