"""EidIndex: the EID-array analogue and its bit-identicality guarantee.

Three layers of assurance:

* unit tests on the index structure itself (bucket moves, exclusivity,
  fail-fast on drift, range queries);
* sub-block regression tests for the scan hole the index closes: lines
  under 16 B tracking live in one dedicated bucket, so they are neither
  scanned twice (once per matching tag) nor missed once a partial persist
  leaves only some sub-EIDs interesting;
* differential property tests driving two identical systems — one on the
  indexed paths, one forced onto the original full-sweep oracle
  (``force_brute``, which the engine-identity harness also uses) —
  through random store/load/epoch sequences and asserting bit-identical
  stats, stall charges, cache contents, and flush ordering.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SchemeHarness, force_brute, line, tiny_config
from repro.cache.cache import SetAssocCache
from repro.cache.eid_index import EidIndex
from repro.cache.line import CacheLine
from repro.core.picl import PiclConfig


def make_indexed_cache():
    """A small cache carrying an EID index, like the hierarchy's LLC."""
    cache = SetAssocCache("test", 1024, 2, 64)
    cache.eid_index = EidIndex()
    return cache


def tagged(addr, eid):
    cache_line = CacheLine(addr)
    cache_line.eid = eid
    return cache_line


class TestIndexMaintenance:
    def test_untagged_lines_not_indexed(self):
        cache = make_indexed_cache()
        cache.insert(CacheLine(line(1)))
        assert len(cache.eid_index) == 0

    def test_insert_tagged_line(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        assert set(cache.eid_index.buckets) == {4}
        assert set(cache.eid_index.buckets[4]) == {line(1)}

    def test_set_eid_moves_buckets_and_drops_empty(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        cache.lookup(line(1), touch=False).set_eid(7)
        assert set(cache.eid_index.buckets) == {7}

    def test_set_eid_tags_and_untags(self):
        cache = make_indexed_cache()
        cache.insert(CacheLine(line(1)))
        resident = cache.lookup(line(1), touch=False)
        resident.set_eid(3)
        assert set(cache.eid_index.buckets) == {3}
        resident.set_eid(-1)
        assert not cache.eid_index.buckets

    def test_remove_discards(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        cache.remove(line(1))
        assert len(cache.eid_index) == 0

    def test_eviction_discards(self):
        cache = make_indexed_cache()  # 8 sets, 2-way
        for n in (0, 8, 16):  # same set
            cache.insert(tagged(line(n), n))
        assert set(cache.eid_index.buckets) == {8 * 64 // 64, 16}
        # (line(0) was LRU and evicted; its bucket is gone)
        assert 0 not in cache.eid_index.buckets

    def test_invalidate_all_clears(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        cache.invalidate_all()
        assert len(cache.eid_index) == 0
        assert cache.dirty_count() == 0

    def test_detached_line_mutations_do_not_reach_index(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        removed = cache.remove(line(1))
        removed.set_eid(9)
        removed.dirty = True
        assert len(cache.eid_index) == 0
        assert cache.dirty_count() == 0

    def test_retag_fails_fast_on_drift(self):
        index = EidIndex()
        stray = tagged(line(1), 4)
        with pytest.raises(KeyError):
            index.retag(stray, 9)


class TestRangeQueries:
    def fill(self):
        cache = make_indexed_cache()
        for n, eid in ((1, 2), (2, 3), (3, 5)):
            cache.insert(tagged(line(n), eid))
        return cache

    def test_occupancy_counts_range(self):
        index = self.fill().eid_index
        assert index.occupancy(2, 3) == 2
        assert index.occupancy(0, 10) == 3
        assert index.occupancy(4, 4) == 0

    def test_candidates_in_range(self):
        index = self.fill().eid_index
        assert {c.addr for c in index.candidates(3, 5)} == {line(2), line(3)}

    def test_wide_range_iterates_buckets_not_range(self):
        # A range far wider than the bucket count must not cost O(range).
        index = self.fill().eid_index
        assert {c.addr for c in index.candidates(0, 10**9)} == {
            line(1), line(2), line(3),
        }


class TestSubBlockBucket:
    def test_init_sub_eids_moves_to_sub_bucket(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        resident = cache.lookup(line(1), touch=False)
        resident.init_sub_eids(4)
        assert set(cache.eid_index.sub) == {line(1)}
        assert not cache.eid_index.buckets  # exclusivity: not in both

    def test_sub_lines_are_candidates_for_any_range(self):
        cache = make_indexed_cache()
        cache.insert(tagged(line(1), 4))
        cache.lookup(line(1), touch=False).init_sub_eids(4)
        assert [c.addr for c in cache.eid_index.candidates(100, 200)] == [line(1)]


def subblock_harness():
    config = tiny_config(
        picl=PiclConfig(acs_gap=3, tracking_granularity=16)
    )
    return SchemeHarness("picl", config=config)


def index_matches_cache(llc):
    """The index must always equal a from-scratch recomputation."""
    index = llc.eid_index
    expected_sub = set()
    expected_buckets = {}
    for resident in llc.iter_lines():
        if resident.sub_eids is not None:
            expected_sub.add(resident.addr)
        elif resident.eid >= 0:
            expected_buckets.setdefault(resident.eid, set()).add(resident.addr)
    assert set(index.sub) == expected_sub
    assert {eid: set(b) for eid, b in index.buckets.items()} == expected_buckets
    for bucket in index.buckets.values():
        assert bucket, "empty bucket left behind"
        assert not set(bucket) & set(index.sub), "line indexed twice"


class TestSubBlockScanHole:
    """Sub-block lines: one bucket, one visit, never missed."""

    def test_subblock_line_in_sub_bucket_only(self):
        harness = subblock_harness()
        harness.store(line(1))
        index_matches_cache(harness.hierarchy.llc)
        assert line(1) in harness.hierarchy.llc.eid_index.sub

    def test_partial_persist_keeps_line_scannable(self):
        harness = subblock_harness()
        engine = harness.scheme.acs
        # Two stores to the same line in different epochs: the line's
        # sub-EIDs straddle epochs 0 and 1.
        harness.store(line(1))
        harness.end_epoch()
        harness.store(line(1))
        # Partial persist: epoch 0's scan writes the line back once.
        writes, _stall = engine.scan(0, now=harness.now)
        assert writes == 1
        llc_line = harness.hierarchy.llc.lookup(line(1), touch=False)
        assert llc_line.sub_eids is not None
        # The line must remain indexed (and findable) for epoch 1 ...
        index_matches_cache(harness.hierarchy.llc)
        assert line(1) in harness.hierarchy.llc.eid_index.sub
        harness.store(line(1))  # re-dirty in epoch 1
        writes, _stall = engine.scan(1, now=harness.now)
        assert writes == 1  # ... neither missed ...
        writes, _stall = engine.bulk_scan(0, 1, now=harness.now)
        assert writes == 0  # ... nor double-written.

    def test_scan_visits_each_line_once(self):
        harness = subblock_harness()
        for n in range(6):
            harness.store(line(n))
        harness.end_epoch()
        visited = list(harness.scheme.acs._iter_scan_lines(0, 0))
        assert len(visited) == len({id(v) for v in visited})

    def test_all_unset_sub_eids_matches_nothing(self):
        harness = subblock_harness()
        harness.load(line(1))
        llc_line = harness.hierarchy.llc.lookup(line(1), touch=False)
        llc_line.init_sub_eids(4)  # candidate with every sub-EID unset
        index_matches_cache(harness.hierarchy.llc)
        writes, _stall = harness.scheme.acs.bulk_scan(0, 10, now=harness.now)
        assert writes == 0


# ---------------------------------------------------------------------------
# differential property tests: indexed paths vs the brute-force oracle
# ---------------------------------------------------------------------------


def run_ops(harness, ops, n_cores=1):
    for n, op in ops:
        core = n % n_cores
        if op == "store":
            harness.store(line(n), core=core)
        elif op == "load":
            harness.load(line(n), core=core)
        else:
            harness.end_epoch()


def snapshot(harness):
    """Everything observable: time (stall charges), stats, LLC contents."""
    llc = harness.hierarchy.llc
    return (
        harness.now,
        harness.stats.as_dict(),
        [(l.addr, l.token, l.dirty, l.eid, l.sub_eids) for l in llc.iter_lines()],
        [l.addr for l in llc.dirty_lines()],
        harness.arch_state(),
    )


def assert_differential(scheme, ops, config_kwargs=None, n_cores=1):
    kwargs = dict(config_kwargs or {})
    if n_cores > 1:
        kwargs["n_cores"] = n_cores
    indexed = SchemeHarness(scheme, config=tiny_config(**kwargs))
    brute = SchemeHarness(scheme, config=tiny_config(**kwargs))
    force_brute(brute)
    run_ops(indexed, ops, n_cores)
    run_ops(brute, ops, n_cores)
    # Force the flush/scan machinery before comparing.
    if hasattr(indexed.scheme, "persist_all_now"):
        indexed.scheme.persist_all_now(indexed.now)
        brute.scheme.persist_all_now(brute.now)
    else:
        indexed.end_epoch()
        brute.end_epoch()
    index_matches_cache(indexed.hierarchy.llc)
    assert snapshot(indexed) == snapshot(brute)
    # collect_dirty_lines must agree in *order* (flush timing depends on it).
    assert [l.addr for l in indexed.hierarchy.collect_dirty_lines()] == [
        l.addr for l in brute.hierarchy.collect_dirty_lines()
    ]


OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from(["store", "store", "load", "epoch"]),
    ),
    max_size=120,
)


class TestBruteDifferential:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS)
    def test_picl(self, ops):
        assert_differential("picl", ops)

    @settings(max_examples=15, deadline=None)
    @given(ops=OPS)
    def test_picl_subblock(self, ops):
        assert_differential(
            "picl",
            ops,
            config_kwargs=dict(
                picl=PiclConfig(acs_gap=3, tracking_granularity=16)
            ),
        )

    @settings(max_examples=10, deadline=None)
    @given(ops=OPS)
    def test_picl_multicore(self, ops):
        assert_differential("picl", ops, n_cores=2)

    @settings(max_examples=10, deadline=None)
    @given(ops=OPS)
    def test_frm_checkpoint_flush(self, ops):
        # FRM's checkpoint flush reads the log per dirty line, so even its
        # *timing* depends on flush order — the sharpest order oracle.
        assert_differential("frm", ops)

    @settings(max_examples=8, deadline=None)
    @given(ops=OPS)
    def test_journaling(self, ops):
        assert_differential("journaling", ops)


class TestCrashRecoveryDifferential:
    def test_recovery_identical_after_mixed_epochs(self):
        ops = [(n % 13, "store") for n in range(40)]
        ops[10] = ops[20] = ops[30] = (0, "epoch")
        indexed = SchemeHarness("picl")
        brute = SchemeHarness("picl")
        force_brute(brute)
        run_ops(indexed, ops)
        run_ops(brute, ops)
        image_i, commit_i, _ref = indexed.crash_and_recover()
        image_b, commit_b, _ref = brute.crash_and_recover()
        assert commit_i == commit_b
        assert image_i == image_b
