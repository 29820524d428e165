"""Bit-identity of the fast single-core engine against the reference loop.

``REPRO_VECTOR=0`` selects the reference loop,
:meth:`Simulation._run_reference`: no L1 mirror, and one
``hierarchy.access`` per reference. By default
:meth:`Simulation._run_single_core` runs the fast engine: windows of the
reference stream are classified
array-at-a-time against the L1 tag mirror, all-fast stretches are
applied in bulk, and everything else replays exactly through the fused
miss-chain drain of :mod:`repro.cache.miss_engine` (the whole
L2/LLC/NVM chain in one loop, with deferred batch bookkeeping). Both are
optimizations, not model changes — so this file drives both paths over
the same points and asserts exact equality of every observable: cycles,
stalls, tokens, the architectural image, the full stat snapshot, and
crash-recovery output.

The matrix deliberately crosses every scheme (each has a different
``vector_store_filter`` contract: always-fast, never-fast, and
EID-conditional) with benchmarks spanning hit-dominated, run-structured,
and miss-heavy traces, plus the configs that force the store filter off
(sub-block granularity, capped log). Crashes land mid-epoch and at
semantic sites *inside* a drained window (LLC-eviction window, torn undo
flush, the pre-in-place window), where the drain's deferred undo run and
channel locals must land before any ``CrashSignal`` can observe them. A
hypothesis fuzz then walks the workload-profile space itself so the
classifier's window/repair logic and the drain's interleavings are
exercised on shapes no curated benchmark hits.

The columnar loop reads trace chunks lazily — it boxes only the blocks
it replays one reference at a time — so the identity checks also cross
L1 associativities (the mirror pads rows to eight ways), every trace
source, and crashes through recovery on a hit-dominated trace, and
``TestLazyThaw`` pins the laziness itself. ``TestGate`` pins which loop
each config selects, including the configs the fast paths decline. The
``"drain"`` engine an L1 wider than a mirror row runs has its own suite,
``tests/sim/test_batched_miss.py``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_identical,
    assert_identical_recovery,
    fuzz_profiles,
    run_mode,
    two_channels,
)
from repro.fault.plan import SITE_UNDO_FLUSH, CrashPlan
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles
from repro.trace.synthetic import (
    THAW_BLOCK,
    MaterializedTrace,
    SyntheticTrace,
    TraceChunk,
    make_trace,
)
from repro.trace.tracefile import RecordedTrace, load_trace, save_trace
from repro.common.units import KB


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=32)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


# Scheme x benchmark points chosen for coverage of the classifier's
# regimes: hmmer (hit-dominated; the bulk path carries nearly every
# window), lbm/h264ref (long same-line runs; the run-based cost model),
# gcc/mcf/astar (miss-heavy; disengage bursts, repair demotions, and the
# drain's residual-dense windows). Every scheme appears on a miss-heavy
# trace, covering all three store-dispatch modes of the drain and both
# write-back transcriptions.
PAIRS = [
    ("ideal", "hmmer"),
    ("journaling", "mcf"),
    ("shadow", "gcc"),
    ("frm", "lbm"),
    ("thynvm", "astar"),
    ("picl", "hmmer"),
    ("picl", "gcc"),
    ("picl", "h264ref"),
    ("ideal", "gcc"),
    ("frm", "astar"),
    ("thynvm", "mcf"),
    ("picl", "astar"),
    ("picl", "lbm"),
]

# Semantic crash sites, with occurrences deep enough that the site fires
# from a drain in a miss-heavy phase, not from the first warm-up window.
SITE_PLANS = [
    ("llc_eviction", "picl", dict(occurrence=300)),
    ("llc_eviction", "journaling", dict(occurrence=15)),
    ("undo_flush", "picl", dict(occurrence=3, tear_entries=7)),
    ("pre_inplace", "picl", dict(occurrence=200)),
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,bench", PAIRS)
    def test_full_run_identical(self, scheme, bench):
        config = small_config()
        scalar = run_mode(False, config, scheme, bench, N, seed=77)
        columnar = run_mode(True, config, scheme, bench, N, seed=77)
        assert_identical(scalar, columnar)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_run_identical(self, scheme):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        scalar = run_mode(False, config, scheme, "gcc", N, seed=9, crash_at=crash_at)
        columnar = run_mode(True, config, scheme, "gcc", N, seed=9, crash_at=crash_at)
        assert scalar.crashed and columnar.crashed
        assert_identical(scalar, columnar)
        assert_identical_recovery(scalar, columnar)

    @pytest.mark.parametrize("site,scheme,kwargs", SITE_PLANS)
    def test_semantic_site_crash_identical(self, site, scheme, kwargs):
        # A crash inside a drained window must observe the exact scalar
        # state: deferred counters, cycles, tokens, and the pending undo
        # run all land before the signal propagates.
        config = small_config()
        plan_a = CrashPlan.on_event(site, **kwargs)
        plan_b = CrashPlan.on_event(site, **kwargs)
        scalar = run_mode(False, config, scheme, "gcc", N, seed=5, crash_plan=plan_a)
        columnar = run_mode(True, config, scheme, "gcc", N, seed=5, crash_plan=plan_b)
        # Both paths must reach the site the same number of times, and
        # these occurrences are chosen so the site actually fires.
        assert plan_a.fired and plan_b.fired
        assert scalar.crashed == columnar.crashed
        assert_identical(scalar, columnar)
        if scalar.crashed:
            assert_identical_recovery(scalar, columnar)

    @pytest.mark.parametrize("bench", ("lbm", "gcc"))
    def test_sub_block_granularity_identical(self, bench):
        # 16 B tracking makes picl's store filter decline every store, so
        # the columnar loop only bulks loads, and every store goes through
        # the drain's out-of-line on_store call site.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        scalar = run_mode(False, config, "picl", bench, N, seed=21)
        columnar = run_mode(True, config, "picl", bench, N, seed=21)
        assert_identical(scalar, columnar)

    @pytest.mark.parametrize("bench", ("lbm", "gcc"))
    def test_capped_log_identical(self, bench):
        # A hard log cap makes every store check log pressure; the store
        # filter must refuse, the drain must dispatch stores out of line
        # and never touch its deferred undo run, and both must agree.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        scalar = run_mode(False, config, "picl", bench, N, seed=33)
        columnar = run_mode(True, config, "picl", bench, N, seed=33)
        assert_identical(scalar, columnar)

    def test_eid_index_verifies_after_drain(self):
        # The drain discards LLC victims from the EID index inline, never
        # deferred (see repro.cache.miss_engine); after a full run a
        # brute-force sweep of the LLC must agree with the index.
        sim = run_mode(True, small_config(), "picl", "gcc", N, seed=13)
        assert sim.engine == "columnar+drain"
        llc = sim.hierarchy.llc
        assert llc.eid_index.verify_against(llc) == []


class TestAssociativity:
    # The L1 mirror pads every row to eight ways so one code path
    # classifies any associativity; 16 sets each (a 3-way L1 needs it).
    @pytest.mark.parametrize("assoc", (2, 3, 8))
    @pytest.mark.parametrize("scheme,bench", [("picl", "hmmer"), ("frm", "gcc")])
    def test_l1_associativity_identical(self, assoc, scheme, bench):
        config = small_config(l1_assoc=assoc, l1_size=assoc * 16 * 64)
        scalar = run_mode(False, config, scheme, bench, N, seed=61)
        columnar = run_mode(True, config, scheme, bench, N, seed=61)
        assert_identical(scalar, columnar)


class TestTraceSources:
    @pytest.mark.parametrize("source", ("memo", "fresh", "file"))
    def test_trace_source_identical(self, source, monkeypatch, tmp_path):
        # Every source builds its chunks through the same frozen-chunk
        # constructor; the columnar loop must not care which one it got.
        config = small_config()
        factory = None
        if source == "fresh":
            monkeypatch.setenv("REPRO_NO_TRACE_MEMO", "1")
        elif source == "file":
            path = tmp_path / "hmmer.npz"
            recorder = Simulation(config, "picl", ["hmmer"], N, seed=71)
            save_trace(path, recorder.traces[0])

            def factory():
                return load_trace(path)

        scalar = run_mode(False, config, "picl", "hmmer", N, seed=71, trace=factory)
        columnar = run_mode(True, config, "picl", "hmmer", N, seed=71, trace=factory)
        expected = {
            "memo": MaterializedTrace,
            "fresh": SyntheticTrace,
            "file": RecordedTrace,
        }[source]
        assert isinstance(columnar.traces[0], expected)
        assert_identical(scalar, columnar)


class TestLazyCrashes:
    # gcc's crash test above thaws nearly every block; on hmmer most of
    # the chunk is never boxed when the crash lands.
    def test_instruction_crash_and_recovery(self):
        config = small_config()
        crash_at = N // 2 + 137
        scalar = run_mode(False, config, "picl", "hmmer", N, 83, crash_at=crash_at)
        columnar = run_mode(True, config, "picl", "hmmer", N, 83, crash_at=crash_at)
        assert scalar.crashed and columnar.crashed
        assert_identical(scalar, columnar)
        assert_identical_recovery(scalar, columnar)

    def test_site_crash_and_recovery(self):
        # Hit-dominated runs this small reach only the undo-flush site
        # (hmmer flushes about once per 117k instructions); the third
        # flush tears after one entry, about 60% of the way through.
        config = small_config()
        plans = [
            CrashPlan.on_event(SITE_UNDO_FLUSH, occurrence=3, tear_entries=1)
            for _ in "ab"
        ]
        n = 400_000
        scalar = run_mode(False, config, "picl", "hmmer", n, 89, crash_plan=plans[0])
        columnar = run_mode(True, config, "picl", "hmmer", n, 89, crash_plan=plans[1])
        assert plans[0].fired and plans[1].fired
        assert scalar.crash_site == columnar.crash_site == SITE_UNDO_FLUSH
        assert_identical(scalar, columnar)
        assert_identical_recovery(scalar, columnar)


class TestLazyThaw:
    def test_thaw_fills_whole_blocks(self):
        chunk = next(make_trace(profiles.get_profile("gcc"), 20_000, seed=3).chunks())
        gaps = chunk.lists[0]
        assert chunk.thawed_refs == 0 and gaps[0] is None
        chunk.thaw(THAW_BLOCK + 5, 2 * THAW_BLOCK + 5)
        assert chunk.thawed_refs == 2 * THAW_BLOCK
        assert gaps[THAW_BLOCK - 1] is None and gaps[3 * THAW_BLOCK] is None
        # Reading outside the thawed blocks raises instead of misreading.
        with pytest.raises(TypeError):
            gaps[3 * THAW_BLOCK] + 1
        frozen = chunk.frozen
        arrays = (
            frozen.gaps,
            frozen.addrs,
            frozen.writes,
            frozen.cum,
            frozen.run_ends,
            frozen.write_cum,
        )
        lo, hi = THAW_BLOCK, 3 * THAW_BLOCK
        for column, array in zip(chunk.lists, arrays):
            assert column[lo:hi] == array[lo:hi].tolist()
        chunk.thaw(THAW_BLOCK, 3 * THAW_BLOCK)
        assert chunk.thawed_refs == 2 * THAW_BLOCK
        # Reading a whole column thaws the rest.
        assert chunk.gaps == chunk.frozen.gaps.tolist()
        assert chunk.thawed_refs == len(chunk)

    def test_missed_thaw_raises(self, monkeypatch):
        # If the interpreter ever replayed a reference it had not thawed,
        # it would read None and fail, never a wrong value.
        monkeypatch.setattr(TraceChunk, "thaw", lambda self, lo, hi: self)
        sim = Simulation(small_config(), "picl", ["hmmer"], N, seed=5)
        with pytest.raises(TypeError):
            sim.run()

    def test_hit_dominated_run_thaws_little(self, monkeypatch):
        # Nearly every reference of ideal/hmmer is bulk-applied from the
        # numpy columns; the per-chunk counts show how little is boxed.
        config = SystemConfig().scaled(128)
        sim = Simulation(
            config, "ideal", ["hmmer"], config.epoch_instructions * 4, seed=7
        )
        trace = sim.traces[0]
        seen = []
        chunks = trace.chunks

        def recording():
            for chunk in chunks():
                seen.append(chunk)
                yield chunk

        monkeypatch.setattr(trace, "chunks", recording)
        sim.run()
        refs = sum(len(chunk) for chunk in seen)
        assert refs > 100_000
        assert sum(chunk.thawed_refs for chunk in seen) < 0.1 * refs


def _wide_l1(config):
    return dataclasses.replace(config, l1_assoc=16, l1_size=16 * KB)


def _attach_dram_cache(sim):
    dram = DramCache(64 * KB, assoc=2, mode=DramCacheMode.WRITE_THROUGH)
    sim.controller.dram_cache = dram
    dram.attach(sim.controller)


def _same(config):
    return config


# (config, prepare, REPRO_VECTOR on, crash, the loop that must run).
# tests/sim/test_batched_miss.py runs the mirror-less "drain" engine
# over schemes, instruction crashes and declined configs; the row here
# takes it through a torn undo flush.
ENGINE_ROWS = [
    pytest.param(_same, None, True, None, "columnar+drain", id="4-way-l1"),
    pytest.param(_wide_l1, None, True, "undo_flush", "drain",
                 id="16-way-l1-undo-flush-crash"),
    pytest.param(two_channels, None, True, None,
                 "reference: nvm has 2 channels", id="2-channel-nvm"),
    pytest.param(_same, _attach_dram_cache, True, None,
                 "reference: dram cache in front of nvm", id="dram-cache"),
    pytest.param(_same, None, False, None, "reference: REPRO_VECTOR=0",
                 id="reference"),
]


class TestGate:
    def test_mirror_attached_by_default(self):
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is not None

    def test_mirror_detached_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is None

    def test_no_mirror_for_l1_wider_than_a_row(self):
        config = small_config(l1_assoc=16, l1_size=16 * KB)
        sim = Simulation(config, "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is None

    def test_multi_core_keeps_no_mirrors(self):
        # Multi-core runs classify nothing: the drain loop runs every
        # reference, so no private L1 carries a mirror.
        config = dataclasses.replace(small_config(), n_cores=2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert all(l1._vec is None for l1 in sim.hierarchy._l1)
        sim.run()
        assert sim.engine == "drain"

    def test_retired_multi_core_sub_switch_is_inert(self, monkeypatch):
        # REPRO_VECTOR_MC once pinned multi-core runs to the reference
        # loop; it is retired, so setting it changes nothing.
        monkeypatch.setenv("REPRO_VECTOR_MC", "0")
        config = dataclasses.replace(small_config(), n_cores=2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "drain"
        single = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert single.hierarchy._l1[0]._vec is not None

    def test_multi_core_master_switch_wins(self, monkeypatch):
        # REPRO_VECTOR=0 disables every fast loop, multi-core included.
        monkeypatch.setenv("REPRO_VECTOR", "0")
        config = dataclasses.replace(small_config(), n_cores=2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert all(l1._vec is None for l1 in sim.hierarchy._l1)
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"

    @pytest.mark.parametrize(
        "config_fn,prepare,vector,crash,engine", ENGINE_ROWS
    )
    def test_engine_selection(self, config_fn, prepare, vector, crash, engine):
        # Two facts pick the single-core loop: whether the drain accepts
        # the config (else the reference loop runs), and whether the L1
        # carries a mirror. Whatever runs must match the reference loop
        # exactly, through recovery.
        config = config_fn(small_config())
        runs = []
        for side in (vector, False):
            plan = None
            if crash == "undo_flush":
                plan = CrashPlan.on_event(SITE_UNDO_FLUSH, occurrence=3, tear_entries=7)
            runs.append(
                run_mode(side, config, "picl", "gcc", N, 19, crash_plan=plan,
                         prepare=prepare, engine=engine)
            )
            assert plan is None or plan.fired
        sim, reference = runs
        assert sim.crashed == reference.crashed == (crash is not None)
        assert_identical(reference, sim)
        assert_identical_recovery(reference, sim)


class TestFuzz:
    @settings(max_examples=10, deadline=None)
    @given(
        profile=fuzz_profiles,
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 2**20),
    )
    def test_random_workloads_identical(self, profile, scheme, seed):
        # Simulation resolves benchmarks by name, so park the generated
        # profile in the registry for the duration of the two runs. The
        # trace memo keys on the profile value (a frozen dataclass), so
        # same-name profiles with different parameters never collide.
        profiles._BY_NAME["_fuzz"] = profile
        try:
            scalar = run_mode(False, small_config(), scheme, "_fuzz", 20_000, seed=seed)
            columnar = run_mode(True, small_config(), scheme, "_fuzz", 20_000, seed=seed)
        finally:
            del profiles._BY_NAME["_fuzz"]
        assert_identical(scalar, columnar)
