"""Memory controller: demand path, logging path, functional image."""

import pytest

from repro.mem.controller import MemoryController
from repro.mem.nvm import AccessCategory
from repro.mem.timing import NvmTimings


@pytest.fixture
def controller():
    return MemoryController(NvmTimings())


class TestDemandPath:
    def test_fill_returns_latency_and_token(self, controller):
        latency, token = controller.demand_fill(0x40, now=0)
        assert latency > 0
        assert token == 0

    def test_fill_sees_written_data(self, controller):
        controller.writeback(0x40, 42, now=0)
        _latency, token = controller.demand_fill(0x40, now=10_000)
        assert token == 42

    def test_writeback_updates_image_immediately(self, controller):
        controller.writeback(0x80, 7, now=0)
        assert controller.read_token(0x80) == 7

    def test_writeback_counts(self, controller):
        controller.writeback(0x80, 7, now=0)
        assert controller.stats.get("mem.writebacks") == 1
        assert controller.stats.get("nvm.iops.writeback") == 1

    def test_demand_fill_counts(self, controller):
        controller.demand_fill(0, now=0)
        assert controller.stats.get("mem.demand_fills") == 1


class TestLoggingPath:
    def test_log_read_does_not_change_image(self, controller):
        controller.log_read_line(0x40, now=0)
        assert controller.read_token(0x40) == 0

    def test_log_write_does_not_touch_image(self, controller):
        controller.write_line(0x40, now=0, category=AccessCategory.RANDOM)
        assert controller.read_token(0x40) == 0

    def test_bulk_write_is_sequential(self, controller):
        controller.bulk_write(2048, now=0)
        assert controller.stats.get("nvm.iops.sequential") == 1

    def test_bulk_copy_is_sequential_and_linkless(self, controller):
        controller.bulk_copy(4096, now=0)
        assert controller.stats.get("nvm.iops.sequential") == 1
        # Module-local: no link bytes accounted.
        assert controller.stats.get("nvm.bytes_written") == 0


class TestSynchronization:
    def test_drain_zero_when_idle(self, controller):
        assert controller.drain(now=0) == 0

    def test_drain_after_writes(self, controller):
        controller.writeback(0, 1, now=0)
        assert controller.drain(now=0) > 0

    def test_drain_eventually_clears(self, controller):
        controller.writeback(0, 1, now=0)
        assert controller.drain(now=10_000_000) == 0


class TestFunctionalHelpers:
    def test_write_token(self, controller):
        controller.write_token(0x100, 5)
        assert controller.read_token(0x100) == 5

    def test_snapshot(self, controller):
        controller.write_token(0x100, 5)
        snap = controller.snapshot_image()
        controller.write_token(0x100, 6)
        assert snap[0x100] == 5
