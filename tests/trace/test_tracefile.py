"""Trace record/replay round trips."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.trace.profiles import get_profile
from repro.trace.synthetic import make_trace
from repro.trace.tracefile import (
    RecordedTrace,
    load_trace,
    record_trace,
    save_trace,
)


def small_trace(seed=3):
    return make_trace(get_profile("gcc").scaled(256), 20_000, seed=seed)


def materialize(trace):
    out = []
    for chunk in trace.chunks():
        out.extend(zip(chunk.gaps, chunk.addrs, chunk.writes))
    return out


class TestRecord:
    def test_record_preserves_stream(self):
        refs = materialize(small_trace())
        recorded = record_trace(small_trace())
        assert materialize(recorded) == refs

    def test_record_captures_source(self):
        recorded = record_trace(small_trace())
        assert recorded.source == "gcc"

    def test_len_and_expected_refs(self):
        recorded = record_trace(small_trace())
        assert len(recorded) == recorded.expected_refs > 0

    def test_chunk_instruction_accounting(self):
        recorded = record_trace(small_trace())
        total = sum(chunk.instructions for chunk in recorded.chunks())
        assert total >= 20_000

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordedTrace([1, 2], [64], [True, False], 10)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gcc.npz"
        original = save_trace(path, small_trace())
        loaded = load_trace(path)
        assert np.array_equal(loaded.gaps, original.gaps)
        assert np.array_equal(loaded.addrs, original.addrs)
        assert np.array_equal(loaded.writes, original.writes)
        assert loaded.n_instructions == original.n_instructions
        assert loaded.source == "gcc"

    def test_loaded_trace_drives_simulation(self, tmp_path):
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import Simulation

        path = tmp_path / "gcc.npz"
        save_trace(path, small_trace())
        config = SystemConfig().scaled(256)
        sim = Simulation(config, "picl", ["gcc"], 20_000)
        sim.traces[0] = load_trace(path)
        result = sim.run()
        assert result.instructions >= 20_000
        # The replay tags the loaded trace's own chunks.
        assert result.engine == "trajectory"

    def test_replay_gives_identical_results(self, tmp_path):
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import Simulation

        path = tmp_path / "t.npz"
        save_trace(path, small_trace(seed=9))

        def run_with(trace):
            config = SystemConfig().scaled(256)
            sim = Simulation(config, "picl", ["gcc"], 20_000, seed=9)
            sim.traces[0] = trace
            return sim.run()

        a = run_with(load_trace(path))
        b = run_with(load_trace(path))
        assert a.cycles == b.cycles
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.int64(99),
            gaps=np.array([0]),
            addrs=np.array([0]),
            writes=np.array([True]),
            n_instructions=np.int64(1),
            source=np.str_(""),
        )
        with pytest.raises(ConfigurationError):
            load_trace(path)
