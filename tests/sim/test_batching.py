"""The trace-side machinery the fast engine depends on.

Each chunk carries cumulative instruction and store counts, computed
once with numpy: the single-core replay (``Simulation._run_replay``)
segments chunks at epoch and crash boundaries and retires runs of L1
hits off them, and the multi-core drain segments its turns off the
boxed instruction counts. Every scheme of a sweep reads the same trace
through the cross-scheme memo (a fresh generator must yield the
identical stream). The fast engine's identity with the reference loop
is tests/sim/test_engine_identity.py's job.
"""

from helpers import fingerprint, run_mode, small_config
from repro.trace import synthetic
from repro.trace.profiles import get_profile
from repro.trace.synthetic import (
    MaterializedTrace,
    SyntheticTrace,
    clear_trace_memo,
    make_trace,
)


class TestTraceMetadata:
    def test_cumulative_counters_match_python_reference(self):
        trace = SyntheticTrace(get_profile("gcc"), 20_000, seed=4)
        for chunk in trace.chunks():
            running = 0
            cum = []
            for gap in chunk.gaps:
                running += gap + 1
                cum.append(running)
            assert chunk.cum_instructions == cum
            assert chunk.frozen.write_cum.tolist() == [
                sum(chunk.writes[: i + 1]) for i in range(len(chunk.writes))
            ]
            assert cum[-1] == chunk.instructions

    def test_metadata_is_idempotent(self):
        trace = SyntheticTrace(get_profile("gcc"), 5_000, seed=5)
        chunk = next(trace.chunks())
        first = chunk.cum_instructions
        assert chunk.lists[3] is first
        assert chunk.cum_instructions is first


class TestTraceMemo:
    def test_memo_returns_identical_stream(self, monkeypatch):
        profile = get_profile("gcc")
        clear_trace_memo()
        memo_a = make_trace(profile, 30_000, seed=11)
        memo_b = make_trace(profile, 30_000, seed=11)
        assert isinstance(memo_a, MaterializedTrace)
        # Memo hits share the frozen storage (thawed chunks are transient)
        # and the entry's cache trajectories; a fresh stream keeps none.
        assert memo_a._chunks is memo_b._chunks
        assert memo_a.trajectories is memo_b.trajectories
        monkeypatch.setattr(synthetic, "_TRACE_MEMO_MAX_REFS", -1)
        fresh = make_trace(profile, 30_000, seed=11)
        assert isinstance(fresh, SyntheticTrace)
        assert fresh.trajectories is None
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
        clear_trace_memo()
        args = ("trajectory", small_config(), "picl", ["gcc"], 60_000, 13)
        with_memo = run_mode(*args)
        monkeypatch.setattr(synthetic, "_TRACE_MEMO_MAX_REFS", -1)
        without_memo = run_mode(*args)
        assert fingerprint(with_memo) == fingerprint(without_memo)
        clear_trace_memo()
