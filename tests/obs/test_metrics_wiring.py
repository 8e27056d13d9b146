"""One read of a system's counters.

``System.metrics_snapshot()`` and ``collect_metrics`` read the live
objects at call time, so nothing a producer does after attach (bumping,
or replacing its counters dict) can leave a reader on a stale copy, and
the flat snapshot a campaign worker ships keeps the same keys and types.
"""

import dataclasses

import pytest

from repro.analysis.parallel import REPLICATION_SPECS
from repro.core.taxonomy import DefenseTraits, MitigationClass
from repro.defenses.base import Defense
from repro.runtime.campaign import CapturedScenario
from repro.sim import build_system, legacy_platform
from repro.sim.metrics import collect_metrics
from repro.workloads import WorkloadRunner


class _NoopDefense(Defense):
    name = "noop"
    traits = DefenseTraits(
        mitigation_class=MitigationClass.ISOLATION,
        location="software",
        covers_dma=False,
        stops_intra_domain=False,
    )

    def _wire(self, system) -> None:
        pass


def test_defense_counters_registered_on_attach():
    system = build_system(legacy_platform(scale=8))
    defense = _NoopDefense()
    defense.attach(system)
    defense.bump("interventions", 3)
    assert system.metrics_snapshot()["defense.noop.interventions"] == 3


def test_collect_metrics_reads_through_registry():
    # the name is kept from when the reads went through a registry; they
    # now go to controller.stats and each defense's counters directly
    system = build_system(legacy_platform(scale=8))
    defense = _NoopDefense()
    defense.attach(system)
    defense.bump("interventions")
    tenant = system.create_domain("tenant", pages=32)
    WorkloadRunner(system, tenant, name="random", mlp=4, seed=2).run(500)

    metrics = collect_metrics(system, label="t", defenses=[defense])
    assert metrics.acts == system.controller.stats.acts
    assert metrics.defense_counters == {"noop": {"interventions": 1}}


def test_replaced_counters_dict_is_read_live():
    system = build_system(legacy_platform(scale=8))
    defense = _NoopDefense()
    defense.attach(system)
    defense.bump("interventions")
    tenant = system.create_domain("tenant", pages=32)
    WorkloadRunner(system, tenant, name="random", mlp=4, seed=2).run(500)

    defense.counters = {"replaced": 7}

    metrics = collect_metrics(system, label="t", defenses=[defense])
    assert metrics.defense_counters == {"noop": {"replaced": 7}}
    assert metrics.acts == system.controller.stats.acts
    snapshot = system.metrics_snapshot()
    assert snapshot["defense.noop.replaced"] == 7
    assert "defense.noop.interventions" not in snapshot
    assert snapshot["mc.acts"] == system.controller.stats.acts


def test_second_defense_with_the_same_name_is_rejected():
    system = build_system(legacy_platform(scale=8))
    first = _NoopDefense()
    first.attach(system)
    second = _NoopDefense()
    with pytest.raises(ValueError, match="noop"):
        second.attach(system)
    assert system.defenses == [first]


# The metrics keys a worker ships for each replication spec at its
# defaults (E13 at 1,000 accesses), with their types.  Every consumer of
# a worker's snapshot (the journal, CampaignResult.metrics, `repro
# status`, perfbench's campaign counts) reads these names, so changing
# one changes the journal format.
_FLOATS = {
    "cache.hit_rate", "mc.average_latency_ns", "mc.energy_proxy",
    "mc.row_hit_rate",
}
_SYSTEM_KEYS = sorted(_FLOATS | {
    "cache.addrmap.entries", "cache.addrmap.evictions",
    "cache.addrmap.hits", "cache.addrmap.misses",
    "cache.hits", "cache.misses",
    "cache.tlb.evict", "cache.tlb.hit", "cache.tlb.miss",
    "mc.act_domains", "mc.acts", "mc.dma_requests",
    "mc.interrupt_handler_failures", "mc.neighbor_refresh_commands",
    "mc.reads", "mc.ref_bursts", "mc.targeted_refreshes",
    "mc.throttle_stalls_ns", "mc.uncore_moves", "mc.writes",
})
_EXPECTED_KEYS = {
    "E4": _SYSTEM_KEYS,
    "E10": sorted(_SYSTEM_KEYS + [
        "defense.targeted-refresh.interrupts",
        "defense.targeted-refresh.victim_refreshes",
    ]),
    "E13": _SYSTEM_KEYS,
}


@pytest.mark.parametrize("name", sorted(REPLICATION_SPECS))
def test_captured_metrics_keep_their_keys_and_types(name):
    spec = REPLICATION_SPECS[name]
    if name == "E13":
        spec = dataclasses.replace(spec, accesses=1000)
    metrics = CapturedScenario(spec)(101)["metrics"]

    assert len(_SYSTEM_KEYS) == 24
    assert sorted(metrics) == _EXPECTED_KEYS[name]
    for key, value in metrics.items():
        assert type(value) is (float if key in _FLOATS else int), key
