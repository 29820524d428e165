"""The fast single-core engine's laziness and its engine gate.

By default :meth:`Simulation._run_single_core` classifies windows of the
reference stream against the L1 tag mirror, applies all-fast stretches
in bulk, and replays the rest through the fused miss-chain drain of
:mod:`repro.cache.miss_engine`; ``REPRO_VECTOR=0`` selects the reference
loop, :meth:`Simulation._run_reference`, with no mirror. The columnar
loop reads trace chunks lazily, boxing only the blocks it replays one
reference at a time: ``TestLazyThaw`` pins that laziness. ``TestGate``
pins which caches carry a mirror and which loop runs. Bit-identity of
every engine with the reference side is
tests/sim/test_engine_identity.py's job.
"""

import pytest

from helpers import small_config
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles
from repro.trace.synthetic import THAW_BLOCK, TraceChunk, make_trace

N = 60_000  # a few scheduled epochs at scale 256


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
        config = small_config(l1_ways=16)
        sim = Simulation(config, "ideal", ["gcc"], 1_000, seed=1)
        assert sim.hierarchy._l1[0]._vec is None

    def test_multi_core_keeps_no_mirrors(self):
        # Multi-core runs classify nothing: the drain loop runs every
        # reference, so no private L1 carries a mirror.
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert all(l1._vec is None for l1 in sim.hierarchy._l1)
        sim.run()
        assert sim.engine == "drain"

    def test_retired_multi_core_sub_switch_is_inert(self, monkeypatch):
        # REPRO_VECTOR_MC once pinned multi-core runs to the reference
        # loop; it is retired, so setting it changes nothing.
        monkeypatch.setenv("REPRO_VECTOR_MC", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "drain"
        single = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert single.hierarchy._l1[0]._vec is not None

    def test_multi_core_master_switch_wins(self, monkeypatch):
        # REPRO_VECTOR=0 disables every fast loop, multi-core included.
        monkeypatch.setenv("REPRO_VECTOR", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert all(l1._vec is None for l1 in sim.hierarchy._l1)
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"
