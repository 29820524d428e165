"""Bit-identity of the multi-core drain loop.

``Simulation._run_multi_core_drain`` replaces the reference heap loop (pop
the earliest-clock core, advance it one reference, push it back) with
horizon-bounded turns through the fused miss chain: the popped core runs
until its clock crosses the smallest other heap key, then the loop
switches cores inline. Token order, the shared-LLC coupling, and the
``total_instructions`` epoch accounting are all constrained to match the
reference loop exactly — so this file drives both loops (``REPRO_VECTOR=0``
vs the default) over the same multi-core points and asserts exact
equality of every observable, the same contract ``test_vectorized.py``
pins for the single-core columnar loop.

The matrix crosses the axes that stress the multi-core-specific
machinery: core counts (turn lengths shrink as the heap fills),
``shared_memory`` (cross-core snoops and back-invalidations), every
scheme (the three store-dispatch modes), short epochs (many epoch
commits mid-turn), and crashes — both instruction-count stops (which
land mid-turn) and semantic-site plans whose ``CrashSignal`` escapes
mid-chain, through full recovery. Configs the drain declines must run
the reference loop and say so. A hypothesis fuzz then walks the product
space so untested corners of (cores, sharing, scheme, crash mode, seed)
still get coverage.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import KB, MB
from repro.core.recovery import check_recovered
from repro.fault.plan import SEMANTIC_SITES, CrashPlan
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace.mixes import MULTIPROGRAM_MIXES

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")

#: Per-core benchmarks, sliced/rotated to the core count: miss-heavy
#: (gcc, mcf, astar), hit-dominated (hmmer), and run-structured
#: (lbm, h264ref) traces so neighbouring cores drift apart and the heap
#: order changes constantly.
BENCHES = ("gcc", "mcf", "hmmer", "lbm", "astar", "h264ref", "gcc", "mcf")

N = 30_000  # per core; a couple of scheduled epochs at scale 256


def small_config(n_cores, **overrides):
    defaults = dict(track_reference=True, reference_depth=32, n_cores=n_cores)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


def benchlist(n_cores, rotate=0):
    ring = BENCHES[rotate:] + BENCHES[:rotate]
    return list(ring[:n_cores])


def run_mode(vector, config, scheme, benches, n, seed, shared_memory=False,
             crash_at=None, crash_plan=None, prepare=None, engine=None):
    """Run one multi-core simulation on the drain loop or the reference one.

    ``REPRO_VECTOR`` is read when the hierarchy is built, so it is pinned
    around construction and restored immediately. ``prepare`` edits the
    built simulation before it runs. The loop that ran is asserted
    (``engine`` overrides the default expectation for declined configs),
    so the test can never compare the reference loop against itself.
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "1" if vector else "0"
    try:
        sim = Simulation(
            config, scheme, benches, n, seed=seed, shared_memory=shared_memory
        )
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous
    assert all(l1._vec is None for l1 in sim.hierarchy._l1)
    if prepare is not None:
        prepare(sim)
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    if engine is None:
        engine = "drain" if vector else "reference: REPRO_VECTOR=0"
    assert sim.engine == engine
    return sim


def undo_log(sim):
    log = getattr(sim.scheme, "log", None)
    if log is None:
        return None
    return [
        (e.addr, e.token, e.valid_from, e.valid_till)
        for e in log.iter_entries_backward()
    ]


def assert_identical(scalar, batched):
    """Every observable of the two simulations must match exactly."""
    a, b = scalar.result(), batched.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    for ca, cb in zip(scalar.cores, batched.cores):
        assert ca.cycle == cb.cycle
        assert ca.mem_stall_cycles == cb.mem_stall_cycles
        assert ca.instructions == cb.instructions
    assert scalar.system.total_instructions == batched.system.total_instructions
    assert scalar.system._next_token == batched.system._next_token
    assert scalar.system.arch_image == batched.system.arch_image
    assert scalar.stats.snapshot() == batched.stats.snapshot()
    assert scalar.controller.image.snapshot() == batched.controller.image.snapshot()
    assert undo_log(scalar) == undo_log(batched)


def assert_identical_recovery(scalar, batched):
    image_a, commit_a, ref_a = scalar.crash_and_recover()
    image_b, commit_b, ref_b = batched.crash_and_recover()
    assert commit_a == commit_b
    assert image_a == image_b
    assert ref_a == ref_b


class TestBitIdentity:
    @pytest.mark.parametrize("n_cores", (2, 4, 8))
    @pytest.mark.parametrize("shared", (False, True))
    def test_core_counts_and_sharing(self, n_cores, shared):
        config = small_config(n_cores)
        benches = benchlist(n_cores)
        scalar = run_mode(False, config, "picl", benches, N, 11,
                          shared_memory=shared)
        batched = run_mode(True, config, "picl", benches, N, 11,
                           shared_memory=shared)
        assert_identical(scalar, batched)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes(self, scheme):
        # Four cores, disjoint spaces: every store-dispatch mode
        # (scheme-silent, out-of-line, PiCL inline) under heap turns.
        config = small_config(4)
        benches = benchlist(4, rotate=1)
        scalar = run_mode(False, config, scheme, benches, N, 23)
        batched = run_mode(True, config, scheme, benches, N, 23)
        assert_identical(scalar, batched)

    def test_sub_block_granularity(self):
        # 16 B tracking sends every PiCL store through the out-of-line
        # on_store.
        config = small_config(2)
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        scalar = run_mode(False, config, "picl", benchlist(2), N, 31)
        batched = run_mode(True, config, "picl", benchlist(2), N, 31)
        assert_identical(scalar, batched)

    def test_eight_cores_short_epochs(self):
        # The benchmark's ACS-heavy eight-core point: Table V's W2 at
        # scale 16 with 4 MB of LLC per core and 512-instruction epochs.
        # An epoch fires every 4096 system instructions, so the drain
        # loop hands back to the simulation (commit, ACS scan,
        # stop-the-world stall, new store filter) every few hundred
        # references, usually mid-turn.
        config = SystemConfig().scaled(
            16, n_cores=8, llc_size_per_core=4 * MB, epoch_instructions=512,
            track_reference=True, reference_depth=32,
        )
        benches = MULTIPROGRAM_MIXES["W2"]
        scalar = run_mode(False, config, "picl", benches, 2048 * 4, 61)
        batched = run_mode(True, config, "picl", benches, 2048 * 4, 61)
        assert scalar.stats.get("commits") > 10
        assert scalar.stats.get("acs.scans") > 0
        assert_identical(scalar, batched)
        assert_identical_recovery(scalar, batched)


def _two_channels(config):
    return dataclasses.replace(
        config, nvm=dataclasses.replace(config.nvm, n_channels=2)
    )


def _attach_dram_cache(sim):
    dram = DramCache(64 * KB, assoc=2, mode=DramCacheMode.WRITE_THROUGH)
    sim.controller.dram_cache = dram
    dram.attach(sim.controller)


class TestDeclined:
    """Configs the drain declines run the reference loop — say so, and
    match a REPRO_VECTOR=0 run exactly."""

    def test_two_channel_nvm(self):
        config = _two_channels(small_config(2))
        benches = benchlist(2)
        scalar = run_mode(False, config, "picl", benches, N, 71)
        declined = run_mode(True, config, "picl", benches, N, 71,
                            engine="reference: nvm has 2 channels")
        assert_identical(scalar, declined)

    def test_dram_cache(self):
        config = small_config(2)
        benches = benchlist(2, rotate=1)
        scalar = run_mode(False, config, "frm", benches, N, 73,
                          prepare=_attach_dram_cache)
        declined = run_mode(True, config, "frm", benches, N, 73,
                            prepare=_attach_dram_cache,
                            engine="reference: dram cache in front of nvm")
        assert scalar.stats.get("dram.hits") > 0
        assert_identical(scalar, declined)


class TestCrashIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_instruction_crash_and_recovery(self, scheme):
        # crash_at counts TOTAL instructions across cores, so the stop
        # lands mid-turn: the stop must see exactly the scalar counters.
        config = small_config(4)
        benches = benchlist(4)
        crash_at = (N * 4) // 2 + 137  # mid-epoch, not on a boundary
        scalar = run_mode(False, config, scheme, benches, N, 43,
                          crash_at=crash_at)
        batched = run_mode(True, config, scheme, benches, N, 43,
                           crash_at=crash_at)
        assert scalar.crashed and batched.crashed
        assert_identical(scalar, batched)
        assert_identical_recovery(scalar, batched)

    @pytest.mark.parametrize("site", SEMANTIC_SITES)
    def test_site_crash_and_recovery(self, site):
        # Site plans power-fail from inside the component that owns the
        # site; both loops must reach the same occurrence at the same
        # machine state. undo_flush also tears the burst so only a prefix
        # of the log entries lands.
        config = small_config(2)
        benches = benchlist(2, rotate=2)
        tear = 1 if site == "undo_flush" else None
        occurrence = 5
        plan_a = CrashPlan.on_event(site, occurrence=occurrence, tear_entries=tear)
        plan_b = CrashPlan.on_event(site, occurrence=occurrence, tear_entries=tear)
        scalar = run_mode(False, config, "picl", benches, N, 53,
                          crash_plan=plan_a)
        batched = run_mode(True, config, "picl", benches, N, 53,
                           crash_plan=plan_b)
        assert plan_a.fired == plan_b.fired
        assert scalar.crashed == batched.crashed
        assert scalar.crash_site == batched.crash_site
        assert_identical(scalar, batched)
        if scalar.crashed:
            assert_identical_recovery(scalar, batched)

    def test_eager_gap_on_mid_chain_crash(self):
        # The reference heap loop retires a reference's compute gap
        # (advance_compute) BEFORE its access chain, and adds it to the
        # system total only after the access returns. So when an
        # llc_eviction CrashSignal escapes from inside the chain, the
        # crashed core's clock and instruction count already hold the
        # in-flight gap and the system total does not. Both loops must
        # leave exactly that, and recover the same image.
        # Short epochs and a late occurrence: commits exist to recover to,
        # and the reference in flight has a nonzero gap.
        config = small_config(2, epoch_instructions=1024)
        benches = ["gcc", "mcf"]
        OCCURRENCE = 300
        sims = [
            run_mode(vector, config, "picl", benches, N, 83,
                     crash_plan=CrashPlan.on_event("llc_eviction",
                                                   occurrence=OCCURRENCE))
            for vector in (False, True)
        ]
        for sim in sims:
            assert sim.crashed and sim.crash_site == "llc_eviction"
            cid, gap = _inflight(sim)
            assert gap > 0
            assert (
                sum(core.instructions for core in sim.cores)
                == sim.system.total_instructions + gap
            )
        scalar, batched = sims
        assert _inflight(scalar)[0] == _inflight(batched)[0]
        for a, b in zip(scalar.cores, batched.cores):
            assert (a.cycle, a.instructions) == (b.cycle, b.instructions)
        assert scalar.system.total_instructions == batched.system.total_instructions
        assert_identical(scalar, batched)
        image_a, commit_a, ref_a = scalar.crash_and_recover()
        image_b, commit_b, ref_b = batched.crash_and_recover()
        assert (image_a, commit_a) == (image_b, commit_b)
        assert commit_b is not None and commit_b >= 0
        check_recovered(image_b, ref_b)


def _inflight(sim):
    """``(core, gap)`` of the reference a mid-chain crash left in flight:
    the one core whose instruction count stops part-way into a
    reference, ``gap`` instructions past its last retired one."""
    found = []
    for cid, core in enumerate(sim.cores):
        retired = 0
        for chunk in sim.traces[cid].chunks():
            for gap in chunk.gaps:
                if retired + gap >= core.instructions:
                    break
                retired += gap + 1
            else:
                continue
            break
        if core.instructions != retired:
            found.append((cid, core.instructions - retired))
    assert len(found) == 1, found
    return found[0]


class TestFuzz:
    @settings(max_examples=8, deadline=None)
    @given(
        n_cores=st.sampled_from((2, 4, 8)),
        shared=st.booleans(),
        scheme=st.sampled_from(SCHEMES),
        rotate=st.integers(0, len(BENCHES) - 1),
        seed=st.integers(0, 2**20),
        crash=st.one_of(
            st.none(),
            st.floats(0.2, 0.9),  # crash fraction of the total run
            st.sampled_from(SEMANTIC_SITES),
        ),
    )
    def test_random_points_identical(self, n_cores, shared, scheme, rotate,
                                     seed, crash):
        # Keep the fuzz affordable: fewer per-core references than the
        # curated matrix, but the full product space of knobs.
        n = 12_000
        config = small_config(n_cores)
        benches = benchlist(n_cores, rotate)
        crash_at = None
        plans = [None, None]
        if isinstance(crash, float):
            crash_at = int(n * n_cores * crash)
        elif crash is not None:
            plans = [CrashPlan.on_event(crash, occurrence=3,
                                        tear_entries=1 if crash == "undo_flush"
                                        else None)
                     for _ in range(2)]
        scalar = run_mode(False, config, scheme, benches, n, seed,
                          shared_memory=shared, crash_at=crash_at,
                          crash_plan=plans[0])
        batched = run_mode(True, config, scheme, benches, n, seed,
                           shared_memory=shared, crash_at=crash_at,
                           crash_plan=plans[1])
        if plans[0] is not None:
            assert plans[0].fired == plans[1].fired
        assert scalar.crashed == batched.crashed
        assert scalar.crash_site == batched.crash_site
        assert_identical(scalar, batched)
        if scalar.crashed:
            assert_identical_recovery(scalar, batched)
