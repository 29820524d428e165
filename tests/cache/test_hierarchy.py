"""Multi-level hierarchy: inclusion, write-back cascades, snooping."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, EvictionSink
from repro.common.stats import StatCounters
from repro.mem.controller import MemoryController
from repro.mem.timing import NvmTimings


class RecordingSink(EvictionSink):
    """Remembers every write-back routed to the scheme."""

    def __init__(self, controller):
        super().__init__(controller)
        self.writebacks = []

    def write_back(self, line_addr, token, now):
        self.writebacks.append((line_addr, token))
        return super().write_back(line_addr, token, now)


def make_hierarchy(n_cores=1, llc_size=4096, l1_size=256, l2_size=1024):
    stats = StatCounters()
    controller = MemoryController(NvmTimings(), stats)
    hierarchy = CacheHierarchy(
        controller,
        n_cores=n_cores,
        l1_size=l1_size,
        l1_assoc=2,
        l2_size=l2_size,
        l2_assoc=2,
        llc_size_per_core=llc_size,
        llc_assoc=2,
        stats=stats,
    )
    sink = RecordingSink(controller)
    hierarchy.attach_sink(sink)
    return hierarchy, controller, sink


class TestBasicAccess:
    def test_first_access_misses_everywhere(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, False, 0, now=0)
        assert hierarchy.stats.get("l1.misses") == 1
        assert hierarchy.stats.get("l2.misses") == 1
        assert hierarchy.stats.get("llc.misses") == 1

    def test_second_access_hits_l1(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, False, 0, now=0)
        wait = hierarchy.access(0, 0x40, False, 0, now=100)
        assert wait == hierarchy.l1(0).hit_latency
        assert hierarchy.stats.get("l1.hits") == 1

    def test_inclusion_after_fill(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, False, 0, now=0)
        assert hierarchy.l1(0).contains(0x40)
        assert hierarchy.l2(0).contains(0x40)
        assert hierarchy.llc.contains(0x40)

    def test_store_marks_dirty_everywhere_it_lives(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 7, now=0)
        assert hierarchy.l1(0).lookup(0x40).dirty
        assert hierarchy.l1(0).lookup(0x40).token == 7

    def test_store_miss_cheaper_than_load_miss(self):
        h1, _c, _s = make_hierarchy()
        load_wait = h1.access(0, 0x40, False, 0, now=0)
        h2, _c2, _s2 = make_hierarchy()
        store_wait = h2.access(0, 0x40, True, 1, now=0)
        assert store_wait < load_wait


class TestWritebackCascade:
    def test_dirty_data_flows_down_on_l1_eviction(self):
        hierarchy, _c, _s = make_hierarchy(l1_size=256)  # 2 sets x 2 ways
        # Fill one L1 set with dirty lines, then evict by touching more.
        stride = 2 * 64  # same L1 set
        hierarchy.access(0, 0, True, 1, now=0)
        hierarchy.access(0, stride, True, 2, now=0)
        hierarchy.access(0, 2 * stride, True, 3, now=0)  # evicts addr 0
        l2_line = hierarchy.l2(0).lookup(0, touch=False)
        assert l2_line is not None
        assert l2_line.dirty
        assert l2_line.token == 1

    def test_llc_eviction_routes_through_sink(self):
        hierarchy, _c, sink = make_hierarchy(llc_size=256, l1_size=128, l2_size=128)
        # LLC: 2 sets x 2 ways; same-set stride is 2*64.
        stride = 2 * 64
        hierarchy.access(0, 0, True, 1, now=0)
        hierarchy.access(0, stride, True, 2, now=0)
        hierarchy.access(0, 2 * stride, True, 3, now=0)
        assert (0, 1) in sink.writebacks

    def test_clean_llc_eviction_is_silent(self):
        hierarchy, _c, sink = make_hierarchy(llc_size=256, l1_size=128, l2_size=128)
        stride = 2 * 64
        for i in range(3):
            hierarchy.access(0, i * stride, False, 0, now=0)
        assert sink.writebacks == []

    def test_llc_eviction_pulls_fresh_private_data(self):
        hierarchy, controller, sink = make_hierarchy(
            llc_size=256, l1_size=128, l2_size=128
        )
        stride = 2 * 64
        hierarchy.access(0, 0, True, 42, now=0)  # dirty only in L1
        hierarchy.access(0, stride, False, 0, now=0)
        hierarchy.access(0, 2 * stride, False, 0, now=0)  # evicts line 0
        assert (0, 42) in sink.writebacks
        assert controller.read_token(0) == 42

    def test_back_invalidation_removes_private_copies(self):
        hierarchy, _c, _s = make_hierarchy(llc_size=256, l1_size=128, l2_size=128)
        stride = 2 * 64
        hierarchy.access(0, 0, True, 1, now=0)
        hierarchy.access(0, stride, False, 0, now=0)
        hierarchy.access(0, 2 * stride, False, 0, now=0)
        assert not hierarchy.l1(0).contains(0)
        assert not hierarchy.l2(0).contains(0)


class TestMultiCore:
    def test_cross_core_access_snoops_dirty_data(self):
        hierarchy, _c, _s = make_hierarchy(n_cores=2)
        hierarchy.access(0, 0x40, True, 5, now=0)
        token_seen = None
        hierarchy.access(1, 0x40, False, 0, now=100)
        line = hierarchy.l1(1).lookup(0x40, touch=False)
        token_seen = line.token
        assert token_seen == 5

    def test_snoop_invalidates_previous_owner(self):
        hierarchy, _c, _s = make_hierarchy(n_cores=2)
        hierarchy.access(0, 0x40, True, 5, now=0)
        hierarchy.access(1, 0x40, False, 0, now=100)
        assert not hierarchy.l1(0).contains(0x40)

    def test_owner_tracking(self):
        hierarchy, _c, _s = make_hierarchy(n_cores=2)
        hierarchy.access(0, 0x40, False, 0, now=0)
        assert hierarchy.llc.lookup(0x40, touch=False).owner == 0
        hierarchy.access(1, 0x40, False, 0, now=10)
        assert hierarchy.llc.lookup(0x40, touch=False).owner == 1


class TestFlushSupport:
    def test_sync_all_private_folds_dirty_data(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 9, now=0)
        llc_line = hierarchy.llc.lookup(0x40, touch=False)
        assert llc_line.token != 9 or llc_line.dirty is False  # stale before sync
        hierarchy.sync_all_private()
        assert llc_line.token == 9
        assert llc_line.dirty

    def test_collect_dirty_lines(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 1, now=0)
        hierarchy.access(0, 0x80, True, 2, now=0)
        hierarchy.access(0, 0xC0, False, 0, now=0)
        dirty = {line.addr for line in hierarchy.collect_dirty_lines()}
        assert dirty == {0x40, 0x80}

    def test_sync_private_line_single(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 9, now=0)
        llc_line = hierarchy.sync_private_line(0x40)
        assert llc_line.token == 9
        assert not hierarchy.l1(0).lookup(0x40, touch=False).dirty

    def test_dirty_line_count(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 1, now=0)
        assert hierarchy.dirty_line_count() == 1

    def test_invalidate_all(self):
        hierarchy, _c, _s = make_hierarchy()
        hierarchy.access(0, 0x40, True, 1, now=0)
        hierarchy.invalidate_all()
        assert len(hierarchy.llc) == 0
        assert len(hierarchy.l1(0)) == 0


class TestSchemeSnoopFill:
    def test_fill_token_override(self):
        hierarchy, controller, sink = make_hierarchy()

        class RedoSink(RecordingSink):
            def fill_token(self, line_addr):
                if line_addr == 0x40:
                    return 77
                return None

        hierarchy.attach_sink(RedoSink(controller))
        hierarchy.access(0, 0x40, False, 0, now=0)
        assert hierarchy.l1(0).lookup(0x40, touch=False).token == 77
        assert hierarchy.stats.get("llc.fills_from_log") == 1

    def test_sink_is_read_only(self):
        # attach_sink also decides which fill_token the fills call; a bare
        # assignment would leave the previous sink's snoop in place.
        hierarchy, controller, sink = make_hierarchy()
        with pytest.raises(AttributeError):
            hierarchy.sink = EvictionSink(controller)
        assert hierarchy.sink is sink

    def test_eid_propagates_on_fill(self):
        hierarchy, _c, _s = make_hierarchy(l1_size=128)
        hierarchy.access(0, 0x40, True, 1, now=0)
        hierarchy.l1(0).lookup(0x40, touch=False).eid = 7
        hierarchy.l2(0).lookup(0x40, touch=False).eid = 7
        # Evict from L1 (2 ways, 1 set at 128B): two more same-set lines.
        hierarchy.access(0, 0x80, False, 0, now=0)
        hierarchy.access(0, 0xC0, False, 0, now=0)
        assert not hierarchy.l1(0).contains(0x40)
        # Refill: the EID must ride along from L2.
        hierarchy.access(0, 0x40, False, 0, now=0)
        assert hierarchy.l1(0).lookup(0x40, touch=False).eid == 7
