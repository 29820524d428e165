"""Bit-identity of the single-core driver against a per-reference loop.

:meth:`Simulation._run_single_core` segments each chunk at epoch and
crash boundaries, coalesces same-line runs, and by default classifies
windows against the L1 mirror and drains residual spans through the
fused miss chain. All of that is optimization, not a model change: every
counter, every cycle, and every recovered byte must match what the
original per-reference loop produced. This file keeps a faithful copy of
that original loop (``naive_run``) and drives both over the same
(scheme, benchmark) points — including a crash-injection run and the
sub-block granularity fallback — asserting exact equality of the results.

It also pins down the trace-side machinery the batched loop depends on:
the lazily computed run/cumsum metadata and the cross-scheme memo
(``REPRO_NO_TRACE_MEMO`` must yield the identical stream).
"""

import dataclasses

import pytest

from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
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


def naive_run(config, scheme_name, benchmark, n_instructions, seed, crash_at=None):
    """Drive a Simulation with the original per-reference loop.

    This is the loop the single-core driver grew from (plus ``run``'s
    finalize step), kept verbatim as the reference semantics the driver
    must reproduce bit-for-bit.
    """
    sim = Simulation(config, scheme_name, [benchmark], n_instructions, seed=seed)
    sim._ran = True
    system = sim.system
    scheme = sim.scheme
    access = sim.hierarchy.access
    core = sim.cores[0]
    epoch_span = sim.config.epoch_instructions
    next_epoch = epoch_span
    track = system.track_reference
    arch_image = system.arch_image
    total = system.total_instructions
    crash = crash_at

    def loop():
        nonlocal total, next_epoch
        for chunk in sim.traces[0].chunks():
            gaps = chunk.gaps
            addrs = chunk.addrs
            writes = chunk.writes
            for index in range(len(gaps)):
                gap = gaps[index]
                cycle = core.cycle + gap
                core.cycle = cycle
                core.instructions += gap
                addr = addrs[index]
                if writes[index]:
                    token = system.new_token()
                    wait = access(0, addr, True, token, cycle)
                    if track:
                        arch_image[addr] = token
                else:
                    wait = access(0, addr, False, 0, cycle)
                core.cycle = cycle + wait
                core.instructions += 1
                core.mem_stall_cycles += wait
                total += gap + 1
                if total >= next_epoch:
                    system.total_instructions = total
                    stall = scheme.on_epoch_boundary(core.cycle)
                    system.broadcast_stall(stall)
                    next_epoch += epoch_span
                if crash is not None and total >= crash:
                    system.total_instructions = total
                    sim.crashed = True
                    return
            system.total_instructions = total
        core.finished = True

    loop()
    if not sim.crashed:
        stall = scheme.finalize(system.max_cycle())
        system.broadcast_stall(stall)
    return sim


def batched_run(config, scheme_name, benchmark, n_instructions, seed, crash_at=None):
    sim = Simulation(config, scheme_name, [benchmark], n_instructions, seed=seed)
    sim.run(crash_at_instructions=crash_at)
    return sim


def assert_identical(naive, batched):
    """Every observable of the two simulations must match exactly."""
    a, b = naive.result(), batched.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    assert naive.cores[0].mem_stall_cycles == batched.cores[0].mem_stall_cycles
    assert naive.system._next_token == batched.system._next_token
    assert naive.system.arch_image == batched.system.arch_image
    assert naive.stats.snapshot() == batched.stats.snapshot()


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
        config = small_config()
        naive = naive_run(config, scheme, bench, N, seed=77)
        batched = batched_run(config, scheme, bench, N, seed=77)
        assert_identical(naive, batched)

    def test_crash_run_identical(self):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        naive = naive_run(config, "picl", "gcc", N, seed=9, crash_at=crash_at)
        batched = batched_run(config, "picl", "gcc", N, seed=9, crash_at=crash_at)
        assert naive.crashed and batched.crashed
        assert_identical(naive, batched)
        image_a, commit_a, ref_a = naive.crash_and_recover()
        image_b, commit_b, ref_b = batched.crash_and_recover()
        assert commit_a == commit_b
        assert image_a == image_b
        assert ref_a == ref_b

    def test_sub_block_granularity_falls_back_identically(self):
        # 16 B tracking rotates the store sequence across sub-blocks, so
        # the coalescing fast path must refuse picl stores — and still
        # match the naive loop exactly.
        config = small_config()
        config = dataclasses.replace(
            config, picl=dataclasses.replace(config.picl, tracking_granularity=16)
        )
        naive = naive_run(config, "picl", "lbm", N, seed=21)
        batched = batched_run(config, "picl", "lbm", N, seed=21)
        assert_identical(naive, batched)

    def test_capped_log_falls_back_identically(self):
        # A hard log cap makes every store check log pressure, which the
        # fast path cannot batch; picl must decline coalescing.
        config = small_config()
        config = dataclasses.replace(
            config,
            picl=dataclasses.replace(config.picl, log_max_bytes=64 * 1024 * 1024),
        )
        naive = naive_run(config, "picl", "lbm", N, seed=33)
        batched = batched_run(config, "picl", "lbm", N, seed=33)
        assert_identical(naive, batched)


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
        with_memo = batched_run(config, "picl", "gcc", N, seed=13)
        monkeypatch.setenv("REPRO_NO_TRACE_MEMO", "1")
        without_memo = batched_run(config, "picl", "gcc", N, seed=13)
        assert_identical(with_memo, without_memo)
        clear_trace_memo()
