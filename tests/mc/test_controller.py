"""Unit tests for the memory controller: request path, refresh engine,
defense hooks, and the primitive back-ends."""

import pytest

from repro.dram.device import DramDevice
from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DramGeometry
from repro.mc.controller import MemoryController, MemoryRequest
from repro.mc.address_map import make_mapper


@pytest.fixture
def geometry():
    return DramGeometry(
        banks_per_rank=8,
        subarrays_per_bank=4,
        rows_per_subarray=32,
        columns_per_row=64,
    )


@pytest.fixture
def controller(geometry):
    device = DramDevice(
        geometry=geometry,
        profile=DisturbanceProfile(mac=10, blast_radius=1),
    )
    return MemoryController(device, make_mapper("linear", geometry))


class TestRequestPath:
    def test_first_access_misses(self, controller):
        completed = controller.submit(MemoryRequest(0, physical_line=0))
        assert completed.buffer_outcome == "miss"
        assert completed.caused_act

    def test_second_access_hits(self, controller):
        first = controller.submit(MemoryRequest(0, physical_line=0))
        second = controller.submit(
            MemoryRequest(first.ready_at_ns, physical_line=1)
        )
        assert second.buffer_outcome == "hit"
        assert not second.caused_act
        assert second.latency_ns < first.latency_ns

    def test_conflict(self, controller, geometry):
        lines_per_row = geometry.columns_per_row
        first = controller.submit(MemoryRequest(0, physical_line=0))
        other_row = controller.submit(
            MemoryRequest(first.ready_at_ns, physical_line=lines_per_row)
        )
        assert other_row.buffer_outcome == "conflict"

    def test_bank_parallelism(self, controller, geometry):
        """Simultaneous requests to different banks overlap; to the same
        bank they serialize."""
        lines_per_bank = geometry.rows_per_bank * geometry.columns_per_row
        same = [
            controller.submit(MemoryRequest(0, physical_line=row * 64))
            for row in range(4)  # 4 different rows, same bank
        ]
        fresh_controller_time = max(r.ready_at_ns for r in same)

        other = MemoryController(
            controller.device.__class__(geometry=geometry),
            make_mapper("linear", geometry),
        )
        spread = [
            other.submit(
                MemoryRequest(0, physical_line=bank * lines_per_bank)
            )
            for bank in range(4)  # 4 different banks
        ]
        spread_time = max(r.ready_at_ns for r in spread)
        assert spread_time < fresh_controller_time

    def test_stats_accounting(self, controller):
        controller.submit(MemoryRequest(0, physical_line=0))
        controller.submit(MemoryRequest(100, physical_line=1, is_write=True))
        controller.submit(
            MemoryRequest(200, physical_line=2, is_dma=True)
        )
        stats = controller.stats
        assert stats.reads == 2
        assert stats.writes == 1
        assert stats.dma_requests == 1
        assert stats.requests == 3
        assert stats.acts == 1

    def test_request_validation(self):
        with pytest.raises(ValueError):
            MemoryRequest(-1, physical_line=0)
        with pytest.raises(ValueError):
            MemoryRequest(0, physical_line=-5)


class TestRefreshEngine:
    def test_periodic_refresh_executes(self, controller):
        timings = controller.device.timings
        controller.advance_to(timings.tREFI * 5)
        assert controller.stats.ref_bursts == 5

    def test_refresh_piggybacks_on_submit(self, controller):
        timings = controller.device.timings
        controller.submit(
            MemoryRequest(timings.tREFI * 3 + 1, physical_line=0)
        )
        assert controller.stats.ref_bursts == 3

    def test_refresh_disabled(self, controller):
        controller.refresh_enabled = False
        controller.advance_to(controller.device.timings.tREFI * 5)
        assert controller.stats.ref_bursts == 0


class TestGatesAndObservers:
    def test_gate_delays_act(self, controller):
        controller.add_act_gate(lambda address, now, domain: 500)
        completed = controller.submit(MemoryRequest(0, physical_line=0))
        assert completed.throttled_ns == 500
        assert controller.stats.throttle_stalls_ns == 500

    def test_gate_skipped_on_hit(self, controller):
        calls = []
        controller.add_act_gate(
            lambda address, now, domain: calls.append(1) or 0
        )
        first = controller.submit(MemoryRequest(0, physical_line=0))
        controller.submit(MemoryRequest(first.ready_at_ns, physical_line=1))
        assert len(calls) == 1  # the hit did not consult the gate

    def test_observer_sees_acts(self, controller):
        seen = []
        controller.add_act_observer(
            lambda address, now, domain, is_dma: seen.append(
                (address.row, domain, is_dma)
            )
        )
        controller.submit(MemoryRequest(0, physical_line=0, domain=7))
        assert seen == [(0, 7, False)]

    def test_interrupt_subscription(self, geometry):
        device = DramDevice(geometry=geometry)
        controller = MemoryController(
            device, make_mapper("linear", geometry),
            act_threshold=2, precise_interrupts=True,
        )
        events = []
        controller.subscribe_interrupts(events.append)
        now = 0
        for row in range(4):
            completed = controller.submit(
                MemoryRequest(now, physical_line=row * 64)
            )
            now = completed.ready_at_ns
        assert len(events) == 2
        assert events[0].physical_line is not None

    def test_configure_counters(self, controller):
        controller.configure_counters(7, precise=True, reset_jitter=2)
        for counter in controller.counters.values():
            assert counter.threshold == 7
            assert counter.precise
            assert counter.reset_jitter == 2


class TestPrimitiveBackends:
    def test_refresh_line_resets_pressure(self, controller):
        tracker = controller.device.tracker
        row_key = controller.mapper.line_to_ddr(0).row_key()
        tracker._pressure[row_key] = 9.0
        controller.refresh_line(0, now=0)
        assert tracker.pressure_of(row_key) == 0.0
        assert controller.stats.targeted_refreshes == 1

    def test_refresh_line_is_pressure_free(self, controller):
        neighbor = controller.mapper.line_to_ddr(0).row_key()[:3] + (1,)
        controller.refresh_line(0, now=0)
        assert controller.device.tracker.pressure_of(neighbor) == 0.0

    def test_ref_neighbors_line(self, controller, geometry):
        tracker = controller.device.tracker
        target = controller.mapper.line_to_ddr(64)  # row 1
        for row in (0, 2):
            tracker._pressure[(0, 0, 0, row)] = 9.0
        controller.ref_neighbors_line(64, blast_radius=1, now=0)
        assert tracker.pressure_of((0, 0, 0, 0)) == 0.0
        assert tracker.pressure_of((0, 0, 0, 2)) == 0.0
        assert controller.stats.neighbor_refresh_commands == 1

    def test_uncore_move(self, controller):
        done = controller.uncore_move(0, 10_000, now=0)
        assert done > 0
        assert controller.stats.uncore_moves == 1
        assert controller.stats.reads == 1
        assert controller.stats.writes == 1

    def test_geometry_mismatch_rejected(self, geometry):
        device = DramDevice(geometry=geometry)
        other = DramGeometry(banks_per_rank=4)
        with pytest.raises(ValueError, match="geometries differ"):
            MemoryController(device, make_mapper("linear", other))
