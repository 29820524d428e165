"""Background (no-backpressure) traffic semantics.

Regression pins for the timing-model bug where repeated posted writes at
a frozen clock turned the backpressure accounting quadratic: autonomous
engines (ACS, ThyNVM's apply) post writes without stalling, and synchronous
loops must advance their clock by the accumulated stall.
"""

import pytest

from repro.mem.controller import MemoryController
from repro.mem.nvm import AccessCategory
from repro.mem.timing import NvmTimings


@pytest.fixture
def controller():
    return MemoryController(NvmTimings())


class TestEnqueueWrite:
    def test_no_stall_ever(self, controller):
        for i in range(500):
            _finish, stall = controller.write_line(i * 64, now=0, backpressure=False)
            assert stall == 0

    def test_load_still_accumulates(self, controller):
        for i in range(100):
            controller.write_line(i * 64, now=0, backpressure=False)
        assert controller.drain(0) >= 100 * controller.timings.row_write_cycles

    def test_bulk_write_no_backpressure(self, controller):
        for _ in range(50):
            _finish, stall = controller.bulk_write(2048, now=0, backpressure=False)
            assert stall == 0

    def test_log_read_no_backpressure(self, controller):
        for i in range(100):
            _finish, stall = controller.log_read_line(i * 64, now=0, backpressure=False)
            assert stall == 0

    def test_background_load_slows_demand_reads_boundedly(self, controller):
        for i in range(100):
            controller.write_line(i * 64, now=0, backpressure=False)
        latency, _token = controller.demand_fill(0, now=0)
        # Interference capped at one in-progress row write.
        assert latency <= (
            controller.timings.row_write_cycles + controller.timings.line_read_cycles
        )


class TestAdvancingClockStaysLinear:
    def test_posted_writes_with_advancing_clock(self, controller):
        """Total stall of n writes issued at the stalled clock is ~n * occupancy."""
        occupancy = controller.timings.line_write_cycles
        total_stall = 0
        n = 200
        for i in range(n):
            _finish, stall = controller.write_line(i * 64, now=total_stall)
            total_stall += stall
        # Linear: total is bounded by the full service time of n writes.
        assert total_stall <= n * occupancy
        # And not wildly below it either (the queue limit absorbs a prefix).
        limit = controller.timings.write_queue_limit_cycles
        assert total_stall >= (n - 10) * occupancy - limit

    def test_frozen_clock_is_what_backpressure_false_is_for(self, controller):
        """With a frozen clock and backpressure on, stalls overcount —
        the documented reason background engines pass backpressure=False."""
        occupancy = controller.timings.line_write_cycles
        frozen_stall = 0
        n = 200
        for i in range(n):
            _finish, stall = controller.write_line(i * 64, now=0)
            frozen_stall += stall
        advancing_stall = 0
        fresh = MemoryController(NvmTimings())
        for i in range(n):
            _finish, stall = fresh.write_line(i * 64, now=advancing_stall)
            advancing_stall += stall
        assert frozen_stall >= advancing_stall
        del occupancy


class TestCategoriesUnaffected:
    def test_enqueue_still_counts_iops(self, controller):
        controller.write_line(
            0, now=0, backpressure=False, category=AccessCategory.RANDOM
        )
        assert controller.stats.get("nvm.iops.random") == 1
