"""The fast single-core engine's laziness, its trajectory's owner, and
its engine gate.

By default a single-core run replays a scheme-free cache trajectory
(:meth:`Simulation._run_replay`). The tag pass is lazy: it tags each
chunk from the chunk object the replay is about to run, classifying
runs of L1 hits against a numpy mirror of the L1
(:class:`repro.cache.vector_mirror.TagMirror`); ``REPRO_VECTOR=0``
selects the reference loop, :meth:`Simulation._run_reference`.
``TestLazyThaw`` pins the laziness: the replay never boxes a chunk, a
crashed run tags only the chunks it reached, and a single-pass trace is
read once. ``TestMemoOwnership`` pins who keeps a trajectory: the trace
memo, one per trace and cache geometry, for as long as its entry lives;
every later run of the trace replays it and tags on from where a crashed
run stopped, and a trace the memo does not hold keeps nothing.
``TestGate`` pins which runs tag through the mirror and which loop runs.
Bit-identity of every engine with the reference side is
tests/sim/test_engine_identity.py's job.
"""

import pytest

from helpers import REFERENCE, fingerprint, run_mode, small_config
from repro.cache.trajectory import Trajectory, geometry
from repro.cache.vector_mirror import TagMirror
from repro.fault.plan import CrashPlan
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import synthetic
from repro.trace.tracefile import load_trace, save_trace

N = 60_000  # a few scheduled epochs at scale 256


@pytest.fixture(autouse=True)
def empty_memo():
    """Start every test from an empty trace memo, so its first fast run
    of a trace tags the trajectory rather than replaying one an earlier
    test kept."""
    synthetic.clear_trace_memo()


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
def made(monkeypatch):
    """Record every trajectory a run creates."""
    trajectories = []
    init = Trajectory.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        trajectories.append(self)

    monkeypatch.setattr(Trajectory, "__init__", recorded)
    return trajectories


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


def kept(sim):
    """The trajectory the trace memo keeps for ``sim``'s trace and cache
    geometry, or None."""
    return sim.traces[0].trajectories.get(geometry(sim.hierarchy))


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
        # the run tags those and no more, and still matches the
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


class TestMemoOwnership:
    def test_runs_of_one_trace_share_the_memos_trajectory(self, tag_calls):
        # The first run tags every chunk into the trajectory the memo
        # keeps; a second scheme's run of the same trace replays that
        # very trajectory and tags nothing.
        config = small_config()
        first = Simulation(config, "picl", ["gcc"], N, seed=3)
        first.run()
        n_chunks = chunk_count(first)
        trajectory = kept(first)
        assert len(trajectory.chunks) == trajectory.tagged == n_chunks
        assert len(tag_calls) == n_chunks
        second = Simulation(config, "frm", ["gcc"], N, seed=3)
        assert second.traces[0].trajectories is first.traces[0].trajectories
        second.run()
        assert second.engine == "trajectory"
        assert kept(second) is trajectory
        assert len(tag_calls) == n_chunks

    def test_geometries_of_one_trace_keep_one_trajectory_each(self):
        # Latencies and epoch length do not decide residency, so they
        # share a trajectory; the L1's ways do, so they get their own.
        first = Simulation(small_config(), "picl", ["gcc"], N, seed=3)
        first.run()
        slower = small_config(epoch_instructions=20_000)
        second = Simulation(slower, "frm", ["gcc"], N, seed=3)
        second.run()
        assert kept(second) is kept(first)
        wide = Simulation(small_config(l1_ways=16), "picl", ["gcc"], N, seed=3)
        wide.run()
        assert wide.traces[0].trajectories is first.traces[0].trajectories
        assert kept(wide) is not kept(first)
        assert len(first.traces[0].trajectories) == 2

    def test_next_scheme_resumes_a_crashed_runs_trajectory(self, tag_calls):
        # A run that crashed early leaves the memo's trajectory
        # part-tagged; the next scheme's run replays those chunks and
        # tags on from the crashed run's MRU state. Both must match the
        # reference side.
        config = small_config()
        n = 400_000
        sims = []
        for engine, brute in (("trajectory", False), (REFERENCE, True)):
            plan = CrashPlan.on_event("undo_flush", 2)
            sims.append(run_mode(engine, config, "picl", ["mcf"], n, 5,
                                 brute=brute, crash_plan=plan))
        crashed, crashed_reference = sims
        assert crashed.crashed and crashed.crash_site == "undo_flush"
        reached = len(tag_calls)
        n_chunks = chunk_count(crashed)
        assert 0 < reached < n_chunks
        assert kept(crashed).tagged == reached
        assert fingerprint(crashed) == fingerprint(crashed_reference)
        full = run_mode("trajectory", config, "frm", ["mcf"], n, 5)
        assert not full.crashed
        # The full run tagged only the chunks the crashed run never reached.
        assert len(tag_calls) == n_chunks
        assert kept(full) is kept(crashed)
        assert kept(full).tagged == len(kept(full).chunks) == n_chunks
        reference = run_mode(REFERENCE, config, "frm", ["mcf"], n, 5,
                             brute=True)
        assert fingerprint(full) == fingerprint(reference)

    def test_clearing_the_memo_drops_its_trajectories(self, tag_calls):
        config = small_config()
        first = Simulation(config, "picl", ["gcc"], N, seed=3)
        first.run()
        n_chunks = chunk_count(first)
        synthetic.clear_trace_memo()
        again = Simulation(config, "picl", ["gcc"], N, seed=3)
        assert again.traces[0].trajectories == {}
        again.run()
        assert kept(again) is not kept(first)
        assert len(tag_calls) == 2 * n_chunks

    def test_trace_outside_the_memo_keeps_nothing(self, monkeypatch, tmp_path,
                                                  made):
        # A single-pass stream and a recorded trace each hand the run a
        # trajectory that keeps no chunk and that no later run sees.
        config = small_config()
        path = tmp_path / "gcc.npz"
        save_trace(path, Simulation(config, "picl", ["gcc"], N, seed=3).traces[0])
        monkeypatch.setattr(synthetic, "_TRACE_MEMO_MAX_REFS", -1)
        for trace in (None, lambda: load_trace(path)):
            made.clear()
            sim = run_mode("trajectory", config, "picl", ["gcc"], N, 3,
                           trace=trace)
            assert sim.traces[0].trajectories is None
            (trajectory,) = made
            assert not trajectory.keep
            assert trajectory.tagged > 0 and trajectory.chunks == []

    def test_tag_state_released_at_the_traces_end(self, tag_calls):
        # Once a replay reaches the trace's end every chunk is tagged: the
        # trajectory drops its MRU lists and mirror, and a later replay
        # tags nothing and still matches the reference side.
        config = small_config()
        first = run_mode("trajectory", config, "journaling", ["mcf"], N, 9)
        trajectory = kept(first)
        assert trajectory.tagged == chunk_count(first)
        assert trajectory._rows is None and trajectory._mirror is None
        tagged = len(tag_calls)
        later = run_mode("trajectory", config, "picl", ["mcf"], N, 9)
        assert kept(later) is trajectory and len(tag_calls) == tagged
        reference = run_mode(REFERENCE, config, "picl", ["mcf"], N, 9,
                             brute=True)
        assert fingerprint(later) == fingerprint(reference)

    def test_failed_tag_pass_starts_the_trajectory_over(self, monkeypatch):
        # A tag pass that fails mid-chunk may leave the MRU lists of the
        # memo's trajectory half updated; it starts over, so the next run
        # of the trace still matches the reference side.
        tag = Trajectory._tag
        calls = []

        def failing(self, addrs):
            calls.append(len(addrs))
            codes = tag(self, addrs)
            if len(calls) == 3:
                raise RuntimeError("tag pass failed")
            return codes

        monkeypatch.setattr(Trajectory, "_tag", failing)
        config = small_config()
        with pytest.raises(RuntimeError):
            Simulation(config, "picl", ["gcc"], N, seed=3).run()
        monkeypatch.setattr(Trajectory, "_tag", tag)
        fast = run_mode("trajectory", config, "picl", ["gcc"], N, 3)
        reference = run_mode(REFERENCE, config, "picl", ["gcc"], N, 3,
                             brute=True)
        assert fingerprint(fast) == fingerprint(reference)


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
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"
        assert not probes
        assert sim.traces[0].trajectories == {}

    def test_multi_core_keeps_no_mirrors(self, probes):
        # Multi-core runs tag nothing: the drain loop runs every
        # reference.
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "drain"
        assert not probes
        assert [trace.trajectories for trace in sim.traces] == [{}, {}]

    def test_retired_multi_core_sub_switch_is_inert(self, monkeypatch):
        # REPRO_VECTOR_MC once pinned multi-core runs to the reference
        # loop; it is retired, so setting it changes nothing.
        monkeypatch.setenv("REPRO_VECTOR_MC", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "drain"
        single = Simulation(small_config(), "ideal", ["gcc"], 1_000, seed=1)
        single.run()
        assert single.engine == "trajectory"
        assert kept(single) is not None

    def test_multi_core_master_switch_wins(self, monkeypatch):
        # REPRO_VECTOR=0 disables every fast loop, multi-core included.
        monkeypatch.setenv("REPRO_VECTOR", "0")
        config = small_config(2)
        sim = Simulation(config, "ideal", ["gcc", "mcf"], 1_000, seed=1)
        sim.run()
        assert sim.engine == "reference: REPRO_VECTOR=0"
