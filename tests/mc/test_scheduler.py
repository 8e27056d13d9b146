"""Tests for the batch request scheduler."""

import pytest

from repro.mc.controller import MemoryRequest
from repro.mc.scheduler import BatchScheduler
from repro.sim import build_system, legacy_platform
from repro.workloads import SharedQueueRunner, WorkloadRunner


@pytest.fixture
def system():
    return build_system(legacy_platform(scale=64))


def same_bank_lines(system, rows):
    """One line in each given row of bank 0 under interleaving."""
    banks = system.geometry.banks_total
    cols = system.geometry.columns_per_row
    return [row * cols * banks for row in rows]


class TestPolicies:
    def test_unknown_policy(self, system):
        with pytest.raises(ValueError):
            BatchScheduler(system.controller, policy="lifo")

    def test_fcfs_preserves_order(self, system):
        scheduler = BatchScheduler(system.controller, policy="fcfs")
        lines = same_bank_lines(system, [0, 1, 0, 1])
        completions = scheduler.issue(
            [MemoryRequest(0, physical_line=line) for line in lines]
        )
        assert [c.request.physical_line for c in completions] == lines
        assert scheduler.reordered == 0

    def test_frfcfs_prefers_open_rows(self, system):
        scheduler = BatchScheduler(system.controller, policy="fr-fcfs")
        # open row 0 first, then a window alternating rows 1 and 0:
        # FR-FCFS should pull the row-0 requests forward
        warm = same_bank_lines(system, [0])[0]
        system.controller.submit(MemoryRequest(0, physical_line=warm))
        lines = same_bank_lines(system, [1, 0, 1, 0])
        completions = scheduler.issue(
            [MemoryRequest(100, physical_line=l + 8) for l in lines]
        )
        issued_rows = [c.address.row for c in completions]
        assert issued_rows[0] == 0  # hit served first
        assert scheduler.reordered > 0

    def test_frfcfs_improves_mixed_sequential_streams(self, system):
        results = {}
        for policy in ("fcfs", "fr-fcfs"):
            fresh = build_system(legacy_platform(scale=64))
            tenants = [fresh.create_domain(f"t{i}", pages=16) for i in range(3)]
            sources = [
                WorkloadRunner(fresh, t, name="sequential", mlp=1, seed=9 + i)
                for i, t in enumerate(tenants)
            ]
            shared = SharedQueueRunner(fresh, sources, window=24, policy=policy)
            results[policy] = shared.run(3000)
        assert results["fr-fcfs"] < results["fcfs"]


class TestInterruptsInsideAWindow:
    def test_handler_completion_outlasts_the_window(self):
        # The window's last ACT overflows the counter, and the handler
        # retires a read far later: busy_until_ns must keep that read.
        system = build_system(legacy_platform(scale=64, act_threshold=8))
        controller = system.controller
        retired = []

        def handler(interrupt):
            late = MemoryRequest(10**7, physical_line=0)
            retired.append(controller.submit(late).ready_at_ns)

        controller.subscribe_interrupts(handler)
        scheduler = BatchScheduler(controller, policy="fcfs")
        completions = scheduler.issue(
            [
                MemoryRequest(0, physical_line=line)
                for line in same_bank_lines(system, range(8))
            ]
        )
        assert retired == [10_000_032]
        assert completions[-1].ready_at_ns == 354
        assert controller.stats.busy_until_ns == 10_000_032


class TestSharedQueueRunner:
    def test_validation(self, system):
        with pytest.raises(ValueError):
            SharedQueueRunner(system, [], window=8)
        tenant = system.create_domain("t", pages=4)
        source = WorkloadRunner(system, tenant, name="random", mlp=1)
        with pytest.raises(ValueError):
            SharedQueueRunner(system, [source], window=0)

    def test_round_robin_fairness(self, system):
        tenants = [system.create_domain(f"t{i}", pages=8) for i in range(2)]
        sources = [
            WorkloadRunner(system, t, name="random", mlp=1, seed=i)
            for i, t in enumerate(tenants)
        ]
        shared = SharedQueueRunner(system, sources, window=10)
        shared.run(100)
        counts = [s.stepped_accesses for s in sources]
        assert abs(counts[0] - counts[1]) <= shared.window
