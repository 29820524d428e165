"""Bit-identity of the single-core driver against the reference loop.

:meth:`Simulation._run_single_core` segments each chunk at epoch and
crash boundaries, coalesces same-line runs, and by default classifies
windows against the L1 mirror and drains residual spans through the
fused miss chain. All of that is optimization, not a model change: every
counter, every cycle, and every recovered byte must match what the
reference loop (``REPRO_VECTOR=0``: one ``hierarchy.access`` per
reference) produces. This file drives both over the same (scheme,
benchmark) points — including crash injection by instruction count and
at every semantic site, and the sub-block granularity fallback —
asserting exact equality of the results.

It also pins down the trace-side machinery the batched loop depends on:
the lazily computed run/cumsum metadata and the cross-scheme memo
(``REPRO_NO_TRACE_MEMO`` must yield the identical stream).
"""

import dataclasses

import pytest

from helpers import assert_identical, assert_identical_recovery, run_mode
from repro.fault.plan import SEMANTIC_SITES, CrashPlan
from repro.sim.config import SystemConfig
from repro.trace.profiles import get_profile
from repro.trace.synthetic import (
    MaterializedTrace,
    SyntheticTrace,
    clear_trace_memo,
    make_trace,
)


def small_config(**overrides):
    defaults = dict(track_reference=True, reference_depth=32)
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256


def run_pair(config, scheme, bench, seed, **kwargs):
    """The same point on the reference loop and on the default engine."""
    return (
        run_mode(False, config, scheme, bench, N, seed, **kwargs),
        run_mode(True, config, scheme, bench, N, seed, **kwargs),
    )


def retired_prefix(sim):
    """``(instructions, references, next gap)`` of the longest prefix of
    the trace that fits in the system's instruction total."""
    total = sim.system.total_instructions
    done = refs = 0
    for chunk in sim.traces[0].chunks():
        for gap in chunk.gaps:
            if done + gap + 1 > total:
                return done, refs, gap
            done += gap + 1
            refs += 1
    return done, refs, 0


PAIRS = [
    ("ideal", "gcc"),
    ("picl", "lbm"),
    ("journaling", "mcf"),
    ("thynvm", "astar"),
    ("shadow", "mcf"),
    ("frm", "lbm"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,bench", PAIRS)
    def test_full_run_identical(self, scheme, bench):
        reference, fast = run_pair(small_config(), scheme, bench, 77)
        assert_identical(reference, fast)

    def test_crash_run_identical(self):
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        reference, fast = run_pair(
            small_config(), "picl", "gcc", 9, crash_at=crash_at
        )
        assert reference.crashed and fast.crashed
        assert_identical(reference, fast)
        assert_identical_recovery(reference, fast)

    def test_sub_block_granularity_falls_back_identically(self):
        # 16 B tracking rotates the store sequence across sub-blocks, so
        # the coalescing fast path must refuse picl stores — and still
        # match the reference loop exactly.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        reference, fast = run_pair(config, "picl", "lbm", 21)
        assert_identical(reference, fast)

    def test_capped_log_falls_back_identically(self):
        # A hard log cap makes every store check log pressure, which the
        # fast path cannot batch; picl must decline coalescing.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        reference, fast = run_pair(config, "picl", "lbm", 33)
        assert_identical(reference, fast)

    @pytest.mark.parametrize("scheme", ("picl", "frm", "journaling"))
    @pytest.mark.parametrize("site", SEMANTIC_SITES)
    def test_site_crash_leaves_reference_state(self, site, scheme):
        # The reference loop retires a reference's gap before its access
        # chain and adds it to the system total after the access. So a
        # crash escaping mid-chain leaves the gap on the core's clock and
        # instruction count but not on the total, which counts exactly
        # the retired references. The fast engine must leave the same.
        plans = [CrashPlan.on_event(site, occurrence=3) for _ in "ab"]
        reference = run_mode(
            False, small_config(), scheme, "gcc", N, 5, crash_plan=plans[0]
        )
        fast = run_mode(True, small_config(), scheme, "gcc", N, 5, crash_plan=plans[1])
        assert plans[0].fired == plans[1].fired
        assert reference.crashed == fast.crashed
        assert reference.crash_site == fast.crash_site
        for sim in (reference, fast):
            done, refs, gap = retired_prefix(sim)
            assert done == sim.system.total_instructions
            assert refs == sim.stats.get("loads") + sim.stats.get("stores")
            assert sim.cores[0].instructions - done in (0, gap)
        assert_identical(reference, fast)
        if reference.crashed:
            assert_identical_recovery(reference, fast)


class TestTraceMetadata:
    def test_run_ends_matches_python_reference(self):
        trace = SyntheticTrace(get_profile("lbm"), 40_000, seed=3)
        for chunk in trace.chunks():
            chunk.ensure_metadata()
            n = len(chunk.addrs)
            expected = [0] * n
            end = n
            for i in range(n - 1, -1, -1):
                if i + 1 < n and chunk.addrs[i] != chunk.addrs[i + 1]:
                    end = i + 1
                expected[i] = end
            assert chunk.run_ends == expected

    def test_cumulative_counters_match_python_reference(self):
        trace = SyntheticTrace(get_profile("gcc"), 20_000, seed=4)
        for chunk in trace.chunks():
            chunk.ensure_metadata()
            running = 0
            cum = []
            for gap in chunk.gaps:
                running += gap + 1
                cum.append(running)
            assert chunk.cum_instructions == cum
            assert chunk.write_cum == [
                sum(chunk.writes[: i + 1]) for i in range(len(chunk.writes))
            ]
            assert cum[-1] == chunk.instructions

    def test_metadata_is_idempotent(self):
        trace = SyntheticTrace(get_profile("gcc"), 5_000, seed=5)
        chunk = next(trace.chunks())
        chunk.ensure_metadata()
        first = chunk.run_ends
        chunk.ensure_metadata()
        assert chunk.run_ends is first


class TestTraceMemo:
    def test_memo_returns_identical_stream(self, monkeypatch):
        profile = get_profile("gcc")
        clear_trace_memo()
        memo_a = make_trace(profile, 30_000, seed=11)
        memo_b = make_trace(profile, 30_000, seed=11)
        assert isinstance(memo_a, MaterializedTrace)
        # Memo hits share the frozen storage (thawed chunks are transient).
        assert memo_a._chunks is memo_b._chunks
        monkeypatch.setenv("REPRO_NO_TRACE_MEMO", "1")
        fresh = make_trace(profile, 30_000, seed=11)
        assert isinstance(fresh, SyntheticTrace)
        for memo_chunk, fresh_chunk in zip(memo_a.chunks(), fresh.chunks()):
            assert memo_chunk.gaps == fresh_chunk.gaps
            assert memo_chunk.addrs == fresh_chunk.addrs
            assert memo_chunk.writes == fresh_chunk.writes
        clear_trace_memo()

    def test_materialized_trace_is_replayable(self):
        clear_trace_memo()
        trace = make_trace(get_profile("gcc"), 30_000, seed=12)
        first = [len(chunk) for chunk in trace.chunks()]
        second = [len(chunk) for chunk in trace.chunks()]
        assert first == second and first
        clear_trace_memo()

    def test_simulation_identical_with_and_without_memo(self, monkeypatch):
        config = small_config()
        clear_trace_memo()
        with_memo = run_mode(True, config, "picl", "gcc", N, seed=13)
        monkeypatch.setenv("REPRO_NO_TRACE_MEMO", "1")
        without_memo = run_mode(True, config, "picl", "gcc", N, seed=13)
        assert_identical(with_memo, without_memo)
        clear_trace_memo()
