"""The fast single-core engine's laziness and its engine gate.

By default a single-core run replays a scheme-free cache trajectory
(:meth:`Simulation._run_replay`). The tag pass is lazy: it tags each
chunk from the chunk object the replay is about to run, classifying
runs of L1 hits against a numpy mirror of the L1
(:class:`repro.cache.vector_mirror.TagMirror`); ``REPRO_VECTOR=0``
selects the reference loop, :meth:`Simulation._run_reference`.
``TestLazyThaw`` pins the laziness: the replay never boxes a chunk, a
crashed run tags only the chunks it reached, and a shared trajectory
keeps its chunks for the next point, which tags on from where a crashed
run stopped. ``TestGate`` pins which runs tag through the mirror and
which loop runs. Bit-identity of every engine with the reference side
is tests/sim/test_engine_identity.py's job.
"""

import pytest

from helpers import REFERENCE, fingerprint, run_mode, small_config
from repro.cache.trajectory import Trajectory
from repro.cache.vector_mirror import TagMirror
from repro.fault.plan import CrashPlan
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import synthetic

N = 60_000  # a few scheduled epochs at scale 256


@pytest.fixture
def tag_calls(monkeypatch):
    """Count the chunks every trajectory tags."""
    calls = []
    tag = Trajectory._tag

    def counted(self, addrs):
        calls.append(len(addrs))
        return tag(self, addrs)

    monkeypatch.setattr(Trajectory, "_tag", counted)
    return calls


@pytest.fixture
def probes(monkeypatch):
    """Count the windows the tag pass classifies through its mirror."""
    calls = []
    hit_prefix = TagMirror.hit_prefix

    def counted(self, ids, stamps):
        calls.append(len(ids))
        return hit_prefix(self, ids, stamps)

    monkeypatch.setattr(TagMirror, "hit_prefix", counted)
    return calls


def chunk_count(sim):
    return sum(1 for _chunk in sim.traces[0].chunks())


class TestLazyThaw:
    def test_hit_dominated_run_thaws_little(self, monkeypatch):
        # The replay reads only the numpy columns of ideal/hmmer's chunks:
        # none of them is ever boxed into Python lists.
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
        assert sum(len(chunk) for chunk in seen) > 100_000
        assert all(chunk._lists is None for chunk in seen)

    def test_early_crash_tags_few_chunks(self, tag_calls):
        # picl/mcf's second undo flush fires in the trace's first chunks:
        # the lone run tags those and no more, and still matches the
        # reference side.
        config = small_config()
        n = 400_000
        sims = []
        for engine, brute in (("trajectory", False), (REFERENCE, True)):
            plan = CrashPlan.on_event("undo_flush", 2)
            sims.append(run_mode(engine, config, "picl", ["mcf"], n, 5,
                                 brute=brute, crash_plan=plan))
        fast, reference = sims
        assert fast.crashed and fast.crash_site == "undo_flush"
        assert 0 < len(tag_calls) < chunk_count(fast) // 2
        assert fingerprint(fast) == fingerprint(reference)

    def test_single_pass_trace_tags_the_replayed_chunks(self, monkeypatch,
                                                        tag_calls):
        # A generator trace runs once; the replay tags the very chunks it
        # is about to run, never a second pass over the trace.
        monkeypatch.setattr(synthetic, "_TRACE_MEMO_MAX_REFS", -1)
        config = small_config()
        fast = run_mode("trajectory", config, "picl", ["gcc"], N, 13)
        reference = run_mode(REFERENCE, config, "picl", ["gcc"], N, 13,
                             brute=True)
        assert fingerprint(fast) == fingerprint(reference)
        # Every reference was tagged once, and the trace was read once.
        refs = fast.stats.get("loads") + fast.stats.get("stores")
        assert sum(tag_calls) == refs
        assert chunk_count(fast) == 0

    def test_shared_trajectory_keeps_its_chunks(self, tag_calls):
        # A batch's trajectory is tagged by its first point and replayed
        # by the next; a lone run's own trajectory keeps nothing.
        config = small_config()
        first = Simulation(config, "picl", ["gcc"], N, seed=3)
        trajectory = first.trajectory()
        first.run(trajectory=trajectory)
        n_chunks = chunk_count(first)
        assert len(trajectory.chunks) == trajectory.tagged == n_chunks
        second = Simulation(config, "frm", ["gcc"], N, seed=3)
        second.run(trajectory=trajectory)
        assert second.engine == "trajectory"
        assert len(tag_calls) == n_chunks
        lone = Trajectory(trajectory.geometry, keep=False)
        Simulation(config, "frm", ["gcc"], N, seed=3).run(trajectory=lone)
        assert lone.tagged == n_chunks and lone.chunks == []

    def test_shared_trajectory_resumes_after_a_crash(self, tag_calls):
        # The crash matrix hands one trajectory to every run of a trace:
        # a run that crashed early leaves it part-tagged, and the next run
        # replays those chunks and tags on from the crashed run's MRU
        # state. Both must match the reference side.
        config = small_config()
        n = 400_000
        trajectory = Simulation(config, "picl", ["mcf"], n, seed=5).trajectory()
        sims = []
        for engine, brute, shared in (
            ("trajectory", False, trajectory),
            (REFERENCE, True, None),
        ):
            plan = CrashPlan.on_event("undo_flush", 2)
            sims.append(run_mode(engine, config, "picl", ["mcf"], n, 5,
                                 brute=brute, crash_plan=plan,
                                 trajectory=shared))
        crashed, crashed_reference = sims
        assert crashed.crashed and crashed.crash_site == "undo_flush"
        reached = len(tag_calls)
        n_chunks = chunk_count(crashed)
        assert 0 < reached < n_chunks
        assert fingerprint(crashed) == fingerprint(crashed_reference)
        full = run_mode("trajectory", config, "frm", ["mcf"], n, 5,
                        trajectory=trajectory)
        assert not full.crashed
        # The full run tagged only the chunks the crashed run never reached.
        assert len(tag_calls) == n_chunks
        assert trajectory.tagged == len(trajectory.chunks) == n_chunks
        reference = run_mode(REFERENCE, config, "frm", ["mcf"], n, 5,
                             brute=True)
        assert fingerprint(full) == fingerprint(reference)


class TestGate:
    def test_mirror_attached_by_default(self, probes):
        # Every L1 associativity tags through the mirror.
        for ways in (4, 16):
            probes.clear()
            sim = Simulation(small_config(l1_ways=ways), "ideal", ["hmmer"],
                             N, seed=1)
            sim.run()
            assert sim.engine == "trajectory"
            assert probes

    def test_mirror_detached_when_disabled(self, monkeypatch, probes):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        sim = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert sim.trajectory() is None
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"
        assert not probes

    def test_multi_core_keeps_no_mirrors(self, probes):
        # Multi-core runs tag nothing: the drain loop runs every
        # reference.
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        assert sim.trajectory() is None
        sim.run()
        assert sim.engine == "drain"
        assert not probes

    def test_retired_multi_core_sub_switch_is_inert(self, monkeypatch):
        # REPRO_VECTOR_MC once pinned multi-core runs to the reference
        # loop; it is retired, so setting it changes nothing.
        monkeypatch.setenv("REPRO_VECTOR_MC", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "drain"
        single = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        assert single.trajectory() is not None

    def test_multi_core_master_switch_wins(self, monkeypatch):
        # REPRO_VECTOR=0 disables every fast loop, multi-core included.
        monkeypatch.setenv("REPRO_VECTOR", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"
