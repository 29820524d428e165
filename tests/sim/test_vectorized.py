"""Bit-identity of the columnar single-core interpreter.

``REPRO_VECTOR`` (default on) swaps :meth:`Simulation._run_single_core`
for the columnar loop in ``_run_single_core_vector``: windows of the
reference stream are classified array-at-a-time against the L1 tag
mirror, all-fast stretches are applied in bulk, and everything else
replays through the exact per-reference path. Like the batching PR
before it, this is an optimization, not a model change — so this file
drives the scalar (``REPRO_VECTOR=0``) and columnar interpreters over
the same points and asserts exact equality of every observable: cycles,
stalls, tokens, the architectural image, the full stat snapshot, and
crash-recovery output.

The matrix deliberately crosses every scheme (each has a different
``vector_store_filter`` contract: always-fast, never-fast, and
EID-conditional) with benchmarks spanning hit-dominated, run-structured,
and miss-heavy traces, plus the configs that force the store filter off
(sub-block granularity, capped log). A hypothesis fuzz then walks the
workload-profile space itself so the classifier's window/repair logic is
exercised on shapes no curated benchmark hits.

The columnar loop reads trace chunks lazily — it boxes only the blocks
it replays one reference at a time — so the identity checks also cross
L1 associativities (the mirror pads rows to eight ways), every trace
source, and crashes through recovery on a hit-dominated trace, and
``TestLazyThaw`` pins the laziness itself.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault.plan import SITE_UNDO_FLUSH, CrashPlan
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import (
    THAW_BLOCK,
    MaterializedTrace,
    SyntheticTrace,
    TraceChunk,
    make_trace,
)
from repro.trace.tracefile import RecordedTrace, load_trace, save_trace
from repro.common.units import KB, MB


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=32)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


def run_mode(
    vector, config, scheme, bench, n, seed, crash_at=None, crash_plan=None, trace=None
):
    """Run one simulation with the columnar interpreter on or off.

    ``REPRO_VECTOR`` is read when the hierarchy is built, so the
    environment must be set before ``Simulation`` is constructed — and
    restored afterwards so the two modes cannot leak into each other.
    ``trace`` (a zero-argument factory) replaces the generated trace.
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "1" if vector else "0"
    try:
        sim = Simulation(config, scheme, [bench], n, seed=seed)
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous
    # The gate must actually have taken effect, or the test compares the
    # scalar interpreter against itself.
    assert (sim.hierarchy._l1[0]._vec is not None) == vector
    if trace is not None:
        sim.traces[0] = trace()
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    return sim


def assert_identical(scalar, columnar):
    """Every observable of the two simulations must match exactly."""
    a, b = scalar.result(), columnar.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    assert scalar.cores[0].mem_stall_cycles == columnar.cores[0].mem_stall_cycles
    assert scalar.system._next_token == columnar.system._next_token
    assert scalar.system.arch_image == columnar.system.arch_image
    assert scalar.stats.snapshot() == columnar.stats.snapshot()


# Scheme x benchmark points chosen for coverage of the classifier's
# regimes: hmmer (hit-dominated; the bulk path carries nearly every
# window), lbm/h264ref (long same-line runs; the run-based cost model),
# gcc/mcf/astar (miss-heavy; disengage bursts and repair demotions).
PAIRS = [
    ("ideal", "hmmer"),
    ("journaling", "mcf"),
    ("shadow", "gcc"),
    ("frm", "lbm"),
    ("thynvm", "astar"),
    ("picl", "hmmer"),
    ("picl", "gcc"),
    ("picl", "h264ref"),
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
        image_a, commit_a, ref_a = scalar.crash_and_recover()
        image_b, commit_b, ref_b = columnar.crash_and_recover()
        assert commit_a == commit_b
        assert image_a == image_b
        assert ref_a == ref_b

    def test_sub_block_granularity_identical(self):
        # 16 B tracking makes picl's store filter decline every store, so
        # the columnar loop only bulks loads; stores all go residual.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        scalar = run_mode(False, config, "picl", "lbm", N, seed=21)
        columnar = run_mode(True, config, "picl", "lbm", N, seed=21)
        assert_identical(scalar, columnar)

    def test_capped_log_identical(self):
        # A hard log cap makes every store check log pressure; the store
        # filter must refuse and the columnar loop must still agree.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        scalar = run_mode(False, config, "picl", "lbm", N, seed=33)
        columnar = run_mode(True, config, "picl", "lbm", N, seed=33)
        assert_identical(scalar, columnar)


def assert_identical_recovery(scalar, columnar):
    image_a, commit_a, ref_a = scalar.crash_and_recover()
    image_b, commit_b, ref_b = columnar.crash_and_recover()
    assert commit_a == commit_b
    assert image_a == image_b
    assert ref_a == ref_b


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
        # REPRO_VECTOR_MC once pinned multi-core runs to the scalar heap
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
        assert sim.engine == "scalar: REPRO_VECTOR=0"

    def test_single_core_engine_is_recorded(self, monkeypatch):
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "columnar+drain"
        monkeypatch.setenv("REPRO_BATCH_MISS", "0")
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "columnar: REPRO_BATCH_MISS=0"
        config = small_config(l1_assoc=16, l1_size=16 * KB)
        sim = Simulation(config, "ideal", ["gcc"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "scalar: l1 is 16-way, wider than a mirror row"


# Workload space for the fuzz: every axis the trace generator exposes,
# constrained exactly as WorkloadProfile.__post_init__ demands.
_fuzz_profiles = st.builds(
    lambda mem, wf, seq, chase_scale, ws, alpha, run, sb, zb_scale: WorkloadProfile(
        "_fuzz",
        mem_ratio=mem,
        write_frac=wf,
        working_set_bytes=ws * MB,
        seq_frac=seq,
        chase_frac=min((1.0 - seq) * chase_scale, 1.0 - seq),
        zipf_alpha=alpha,
        category="fuzz",
        seq_run=run,
        write_seq_bias=sb,
        write_zipf_bias=min((1.0 - sb) * zb_scale, 1.0 - sb),
    ),
    mem=st.floats(0.05, 1.0),
    wf=st.floats(0.0, 1.0),
    seq=st.floats(0.0, 1.0),
    chase_scale=st.floats(0.0, 1.0),
    ws=st.integers(1, 64),
    alpha=st.floats(0.05, 1.5),
    run=st.integers(1, 16),
    sb=st.floats(0.0, 1.0),
    zb_scale=st.floats(0.0, 1.0),
)


class TestFuzz:
    @settings(max_examples=10, deadline=None)
    @given(
        profile=_fuzz_profiles,
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
