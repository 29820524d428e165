"""NVM channel timing and IOPS accounting, driven through the controller."""

import pytest

from repro.mem.controller import MemoryController
from repro.mem.nvm import AccessCategory
from repro.mem.timing import NvmTimings


@pytest.fixture
def controller():
    return MemoryController(NvmTimings())


def read_line(controller, addr, now):
    """A demand line read's completion time."""
    latency, _token = controller.demand_fill(addr, now)
    return now + latency


class TestReads:
    def test_read_latency_is_service_time_when_idle(self, controller):
        finish = read_line(controller, 0, now=0)
        assert finish == controller.timings.line_read_cycles

    def test_reads_serialize_fcfs(self, controller):
        first = read_line(controller, 0, now=0)
        second = read_line(controller, 64, now=0)
        assert second == first + controller.timings.line_read_cycles

    def test_read_after_idle_gap_starts_immediately(self, controller):
        read_line(controller, 0, now=0)
        finish = read_line(controller, 64, now=100_000)
        assert finish == 100_000 + controller.timings.line_read_cycles

    def test_write_backlog_interferes_boundedly(self, controller):
        # Pile up a large write backlog, then read: interference is capped
        # at one row write (read priority).
        for i in range(50):
            controller.write_line(i * 64, now=0)
        finish = read_line(controller, 0, now=0)
        expected_max = (
            controller.timings.row_write_cycles + controller.timings.line_read_cycles
        )
        assert finish <= expected_max

    def test_counts_demand_reads(self, controller):
        read_line(controller, 0, now=0)
        assert controller.stats.get("nvm.iops.demand_read") == 1
        assert controller.stats.get("nvm.bytes_read") == 64


class TestPostedWrites:
    def test_no_stall_below_queue_limit(self, controller):
        _finish, stall = controller.write_line(0, now=0)
        assert stall == 0

    def test_backpressure_above_queue_limit(self, controller):
        stalled = 0
        for i in range(100):
            _finish, stall = controller.write_line(i * 64, now=0)
            stalled += stall
        assert stalled > 0

    def test_backlog_drains_over_time(self, controller):
        for i in range(20):
            controller.write_line(i * 64, now=0)
        much_later = 10_000_000
        assert controller.drain(much_later) == 0

    def test_counts_writebacks(self, controller):
        controller.write_line(0, now=0, category=AccessCategory.WRITEBACK)
        assert controller.stats.get("nvm.iops.writeback") == 1
        assert controller.stats.get("nvm.bytes_written") == 64

    def test_random_category(self, controller):
        controller.write_line(0, now=0, category=AccessCategory.RANDOM)
        assert controller.stats.get("nvm.iops.random") == 1


class TestBulkOps:
    def test_bulk_write_is_one_iop(self, controller):
        controller.bulk_write(2048, now=0)
        assert controller.stats.get("nvm.iops.sequential") == 1
        assert controller.stats.get("nvm.bytes_written") == 2048

    def test_bulk_write_cheaper_than_random(self, controller):
        bulk_finish, _ = controller.bulk_write(2048, now=0)
        random_total = 32 * controller.timings.line_write_cycles
        assert bulk_finish < random_total

    def test_bulk_read_counts(self, controller):
        controller.bulk_read(4096, now=0)
        assert controller.stats.get("nvm.iops.sequential") == 1
        assert controller.stats.get("nvm.bytes_read") == 4096

    def test_log_read_line_counts_random(self, controller):
        controller.log_read_line(0, now=0)
        assert controller.stats.get("nvm.iops.random") == 1


class TestChannels:
    def test_channel_mapping_deterministic(self, controller):
        assert controller.channel_for(0x1234) == controller.channel_for(0x1234)

    def test_single_channel_maps_everything_to_zero(self, controller):
        assert controller.channel_for(1 << 40) == 0

    def test_multi_channel_row_interleaving(self):
        controller = MemoryController(NvmTimings(n_channels=4))
        rows = {controller.channel_for(row * 2048) for row in range(8)}
        assert rows == {0, 1, 2, 3}

    def test_multi_channel_parallelism(self):
        one = MemoryController(NvmTimings(n_channels=1))
        four = MemoryController(NvmTimings(n_channels=4))
        for controller in (one, four):
            for row in range(8):
                controller.bulk_write(2048, now=0)
        assert four.drain(0) < one.drain(0)

    def test_drain_covers_all_channels(self):
        controller = MemoryController(NvmTimings(n_channels=2))
        controller.write_line(0, now=0)
        controller.write_line(2048, now=0)
        assert controller.drain(0) > 0
