"""NVM timing parameters and derived service times."""

import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import KB
from repro.mem.timing import NvmTimings


class TestDefaults:
    def test_table_iv_row_latencies(self):
        t = NvmTimings()
        assert t.row_read_cycles == 256
        assert t.row_write_cycles == 736

    def test_row_buffer_is_2kb(self):
        assert NvmTimings().row_buffer_bytes == 2 * KB

    def test_single_channel_default(self):
        assert NvmTimings().n_channels == 1


class TestValidation:
    def test_bad_row_buffer(self):
        with pytest.raises(ConfigurationError):
            NvmTimings(row_buffer_bytes=1500)

    def test_bad_channels(self):
        with pytest.raises(ConfigurationError):
            NvmTimings(n_channels=0)

    def test_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            NvmTimings(cpu_ghz=0)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NvmTimings(link_gb_per_s=-1)


class TestServiceTimes:
    def test_line_read_includes_transfer(self):
        t = NvmTimings()
        assert t.line_read_cycles == t.row_read_cycles + t.transfer_cycles(64)

    def test_line_write_includes_transfer(self):
        t = NvmTimings()
        assert t.line_write_cycles == t.row_write_cycles + t.transfer_cycles(64)

    def test_transfer_scales_with_size(self):
        t = NvmTimings()
        assert t.transfer_cycles(2048) >= 32 * t.transfer_cycles(64) - 32

    def test_bulk_write_amortizes_row_cost(self):
        t = NvmTimings()
        bulk = t.bulk_write_cycles(2048)
        random = 32 * t.line_write_cycles
        # One row activation for 32 lines vs 32 activations.
        assert bulk < random / 5

    def test_bulk_write_multiple_rows(self):
        t = NvmTimings()
        assert t.bulk_write_cycles(4096) >= 2 * t.row_write_cycles

    def test_bulk_read_smaller_than_random_reads(self):
        t = NvmTimings()
        assert t.bulk_read_cycles(2048) < 32 * t.line_read_cycles / 5

    def test_tiny_bulk_still_pays_one_row(self):
        t = NvmTimings()
        assert t.bulk_write_cycles(64) >= t.row_write_cycles

    def test_slow_write_latency_propagates(self):
        slow = NvmTimings(row_write_ns=968.0)
        fast = NvmTimings(row_write_ns=68.0)
        assert slow.line_write_cycles > fast.line_write_cycles
        assert slow.line_read_cycles == fast.line_read_cycles


class TestPickle:
    def test_derived_cycles_recomputed_on_unpickle(self):
        # A timing pickled by an older build lacks attributes this build
        # derives; a spooled point must still build a controller.
        old = NvmTimings(row_write_ns=500.0)
        del old.line_read_cycles, old.line_write_cycles
        loaded = pickle.loads(pickle.dumps(old))
        fresh = NvmTimings(row_write_ns=500.0)
        assert loaded.line_read_cycles == fresh.line_read_cycles
        assert loaded.line_write_cycles == fresh.line_write_cycles
