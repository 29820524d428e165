"""DRAM memory-side cache extension (§IV-C)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import KB
from repro.mem.controller import MemoryController
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.mem.timing import NvmTimings


def make(mode, capacity_kb=64, assoc=2):
    cache = DramCache(capacity_kb * KB, assoc=assoc, mode=mode)
    controller = MemoryController(NvmTimings(), dram_cache=cache)
    return controller, cache


class TestWriteThrough:
    def test_write_reaches_nvm_immediately(self):
        controller, _cache = make(DramCacheMode.WRITE_THROUGH)
        controller.writeback(0x40, 9, now=0)
        assert controller.image.read(0x40) == 9

    def test_read_hit_is_fast(self):
        controller, cache = make(DramCacheMode.WRITE_THROUGH)
        controller.demand_fill(0x40, now=0)  # miss fills the page
        latency, _token = controller.demand_fill(0x80, now=10_000)  # same page
        assert latency == cache.hit_latency

    def test_read_miss_pays_page_fill(self):
        controller, cache = make(DramCacheMode.WRITE_THROUGH)
        latency, _token = controller.demand_fill(0x40, now=0)
        assert latency > cache.hit_latency

    def test_hit_returns_nvm_data(self):
        controller, _cache = make(DramCacheMode.WRITE_THROUGH)
        controller.writeback(0x40, 5, now=0)
        _latency, token = controller.demand_fill(0x40, now=1000)
        assert token == 5

    def test_hit_miss_counters(self):
        controller, _cache = make(DramCacheMode.WRITE_THROUGH)
        controller.demand_fill(0x40, now=0)
        controller.demand_fill(0x40, now=1000)
        assert controller.stats.get("dram.misses") == 1
        assert controller.stats.get("dram.hits") == 1

    def test_background_writes_never_stall(self):
        # ACS write-backs pass backpressure=False: through the DRAM cache
        # they must load the NVM exactly as without it, and never stall.
        controller, _cache = make(DramCacheMode.WRITE_THROUGH)
        bare = MemoryController(NvmTimings())
        for mc in (controller, bare):
            stalls = [
                mc.writeback(i * 64, i, now=0, backpressure=False)[1]
                for i in range(200)
            ]
            assert sum(stalls) == 0
        assert controller.drain(0) == bare.drain(0) == 200 * (
            bare.timings.line_write_cycles
        )


class TestWriteBack:
    def test_dirty_data_not_in_nvm_until_eviction(self):
        controller, _cache = make(DramCacheMode.WRITE_BACK)
        controller.writeback(0x40, 9, now=0)
        # Volatile in DRAM: the NVM image must not see it yet.
        assert controller.image.read(0x40) == 0

    def test_read_returns_dirty_dram_data(self):
        controller, _cache = make(DramCacheMode.WRITE_BACK)
        controller.writeback(0x40, 9, now=0)
        _latency, token = controller.demand_fill(0x40, now=100)
        assert token == 9

    def test_eviction_writes_page_back(self):
        controller, cache = make(DramCacheMode.WRITE_BACK, capacity_kb=8, assoc=1)
        controller.writeback(0, 1, now=0)
        # Touch another page mapping to the same set to force eviction.
        n_sets = cache.n_sets
        conflicting = n_sets * 4096
        controller.demand_fill(conflicting, now=100)
        assert controller.image.read(0) == 1
        assert controller.stats.get("dram.page_writebacks") == 1

    def test_flush_all(self):
        controller, cache = make(DramCacheMode.WRITE_BACK)
        controller.writeback(0x40, 9, now=0)
        controller.writeback(0x2040, 10, now=0)
        assert cache.dirty_page_count() == 2
        cache.flush_all(now=1000)
        assert controller.image.read(0x40) == 9
        assert controller.image.read(0x2040) == 10
        assert cache.dirty_page_count() == 0


class TestStructure:
    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            DramCache(4096, assoc=2)

    def test_lru_within_set(self):
        controller, cache = make(DramCacheMode.WRITE_THROUGH, capacity_kb=8, assoc=2)
        n_sets = cache.n_sets
        base = 0
        second = n_sets * 4096
        third = 2 * n_sets * 4096
        controller.demand_fill(base, now=0)
        controller.demand_fill(second, now=10)
        controller.demand_fill(base, now=20)  # touch LRU -> MRU
        controller.demand_fill(third, now=30)  # evicts `second`
        hits_before = controller.stats.get("dram.hits")
        controller.demand_fill(base, now=40)
        assert controller.stats.get("dram.hits") == hits_before + 1
