"""Engine identity: the fast engine against the reference side, 1..N cores.

The fast engine is an optimization, not a model change. One core
replays a scheme-free cache trajectory (``trajectory``), tagged lazily,
chunk by chunk: the trace memo keeps one per trace and cache geometry,
so a run tags the chunks no earlier run of its trace reached and
replays the rest. Several cores take turns through the multi-core drain
(``drain``). No config declines: both call the hierarchy's own miss
chain, so 2-channel NVM, a DRAM cache and a plain eviction sink run
fast too.

Every case runs one point twice. The first run must report the engine
the case names. The second is the reference side: ``REPRO_VECTOR=0``
(``Simulation._run_reference``, one ``hierarchy.access`` per reference)
with every cache and the ACS engine on the brute-force sweep oracle
(``force_brute``). Their ``fingerprint``s must be equal: per-core
clocks, stalls and instructions, the system total, the next token, the
arch image, every stat, the NVM image, the undo log, the crash
outcome and the scheme's store sequence. So one comparison covers the
replay, the drain and the EID index, and the fast side's index must
also match a sweep of its LLC.
Both sides then power-fail and must recover the same image. A crashed
run must also leave the reference loop's in-flight convention: the
system total counts exactly the retired references, and at most one
core (the one whose access chain the crash escaped) carries its next
reference's gap on its clock and instruction count.

``ROWS`` is the curated matrix. ``test_fuzz`` draws the whole config
space, one ``SHAPES`` share per fast-engine path, on every memory shape
(``MEMORY_ROWS``), and asserts the engine each draw must run.
``SHARED_ROWS`` and the fuzz's ``shared-batch`` shape run one trace
under all six schemes from an empty memo, each against its own
reference run: the first tags the trajectory and the rest replay it.
``COUNT_ROWS`` pin the invariant the trajectory rests on: its level
counts are every scheme's ``l1.hits``, ``l2.misses`` and
``llc.misses``. ``test_every_store_calls_on_store`` records every
``on_store`` call on both sides of 2- and 8-core drain runs, under each
kind of store filter. ``test_one_definition`` runs both sides on one mutant
of PiCL's hazard flush, and ``test_one_cache_definition`` on one mutant
of the demand fill: every engine calls the scheme's and the cache
chain's own rules, so a mutant changes them alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import REFERENCE, fingerprint, run_mode, small_config
from repro.cache.hierarchy import EvictionSink
from repro.cache.trajectory import (
    L1_HIT, LEVEL, LLC_HIT, LLC_MISS, Trajectory, geometry,
)
from repro.common.units import KB, MB
from repro.core.recovery import check_recovered
from repro.core.undo_buffer import UndoBuffer
from repro.fault.plan import SEMANTIC_SITES, SITE_UNDO_FLUSH, CrashPlan
from repro.mem.controller import MemoryController
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.sim.simulator import Simulation
from repro.trace import profiles, synthetic
from repro.trace.mixes import MULTIPROGRAM_MIXES
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import (
    MaterializedTrace, SyntheticTrace, clear_trace_memo,
)
from repro.trace.tracefile import RecordedTrace, load_trace, save_trace

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")

N = 60_000  # one core: a few scheduled epochs at scale 256
N_MC = 30_000  # per core of a multi-core point

#: Per-core benchmarks, rotated and sliced to the core count: miss-heavy
#: (gcc, mcf, astar), hit-dominated (hmmer) and run-structured (lbm,
#: h264ref), so neighbouring cores drift apart and the turn order keeps
#: changing.
BENCHES = ("gcc", "mcf", "hmmer", "lbm", "astar", "h264ref", "gcc", "mcf")


def benchlist(n_cores, rotate=0):
    ring = BENCHES[rotate:] + BENCHES[:rotate]
    return list(ring[:n_cores])


def attach_dram_cache(sim):
    dram = DramCache(64 * KB, assoc=2, mode=DramCacheMode.WRITE_THROUGH)
    sim.controller.dram_cache = dram
    dram.attach(sim.controller)


def attach_plain_sink(sim):
    sim.hierarchy.attach_sink(EvictionSink(sim.controller))


class CountingSink(EvictionSink):
    """A plain sink whose ``on_store`` counts each store and stalls it
    one cycle, so a skipped call shows in the stats and the clocks."""

    def on_store(self, core, line, now):
        self.controller.stats.add("sink.on_store_calls")
        return 1


def attach_counting_sink(sim):
    sim.hierarchy.attach_sink(CountingSink(sim.controller))


def retired(trace, instructions):
    """``(instructions, references)`` of the longest prefix of ``trace``
    that fits in ``instructions``, and the next reference's gap."""
    done = refs = 0
    for chunk in trace.chunks():
        for gap in chunk.gaps:
            if done + gap + 1 > instructions:
                return done, refs, gap
            done += gap + 1
            refs += 1
    return done, refs, 0


def gap_carriers(sim):
    """Check the in-flight convention of a crashed run (see the module
    docstring); return the cores that carry their next gap."""
    total = refs = 0
    carriers = []
    for cid, core in enumerate(sim.cores):
        done, n_refs, gap = retired(sim.traces[cid], core.instructions)
        total += done
        refs += n_refs
        if core.instructions != done:
            assert core.instructions == done + gap
            carriers.append(cid)
    assert total == sim.system.total_instructions
    assert refs == sim.stats.get("loads") + sim.stats.get("stores")
    assert len(carriers) <= 1
    return carriers


def run_pair(engine, scheme, benches, seed, n=N, shared=False, crash_at=None,
             site=None, occurrence=3, tear=None, prepare=None, trace=None,
             must_crash=False, expect=(), **config):
    """Run one point on ``engine`` and on the reference side; compare.

    ``must_crash`` (True, or ``"mid-chain"`` for a crash that leaves a
    gap in flight) and ``expect`` (``(stat, minimum)`` pairs) check that
    the point exercises what it was chosen for.
    """
    config = small_config(len(benches), **config)
    sims, plans = [], []
    for side, brute in ((engine, False), (REFERENCE, True)):
        plan = None if site is None else CrashPlan.on_event(
            site, occurrence=occurrence, tear_entries=tear
        )
        plans.append(plan)
        sims.append(run_mode(
            side, config, scheme, benches, n, seed, brute=brute,
            shared_memory=shared, crash_at=crash_at, crash_plan=plan,
            trace=trace, prepare=prepare,
        ))
    fast, reference = sims
    if site is not None:
        assert plans[0].fired == plans[1].fired
    assert fast.crashed or not must_crash
    for stat, minimum in expect:
        assert fast.stats.get(stat) >= minimum, stat
    llc = fast.hierarchy.llc
    assert llc.eid_index.verify_against(llc) == []
    assert fingerprint(fast) == fingerprint(reference)
    if fast.crashed:
        carriers = gap_carriers(fast)
        assert carriers or must_crash != "mid-chain"
    recovered = fast.crash_and_recover()
    assert recovered == reference.crash_and_recover()
    image, _commit, snapshot = recovered
    if snapshot is not None:
        check_recovered(image, snapshot)
    return fast


def kept_trajectory(sim):
    """The trajectory the trace memo keeps for ``sim``'s trace and cache
    geometry (None if no run made one)."""
    return sim.traces[0].trajectories.get(geometry(sim.hierarchy))


def tagged_trajectory(benches, seed, n=N, **config):
    """A point's trajectory with every chunk of its trace tagged, made
    apart from the one the trace memo keeps."""
    config = {k: v for k, v in config.items() if k in SHAPE_KEYS}
    probe = Simulation(small_config(len(benches), **config), "ideal", benches,
                       n, seed=seed)
    trajectory = Trajectory(geometry(probe.hierarchy))
    for index, chunk in enumerate(probe.traces[0].chunks()):
        trajectory.chunk_codes(index, chunk)
    return trajectory


#: run_pair's keywords that shape the system (small_config's), as
#: opposed to the run's (crashes, expectations, hooks).
SHAPE_KEYS = {
    "scale", "l1_ways", "granularity", "log_cap", "channels",
    "llc_size_per_core", "epoch_instructions",
}


def run_shared_batch(engine, benches, seed, n=N, **kwargs):
    """Run one trace under all six schemes, each compared with its own
    reference run; returns the fast runs. The memo starts empty, so the
    first scheme tags the trajectory and the rest replay the very one
    it kept."""
    clear_trace_memo()
    fasts = [run_pair(engine, scheme, benches, seed, n=n, **kwargs)
             for scheme in SCHEMES]
    shared = kept_trajectory(fasts[0])
    assert shared is not None
    assert all(kept_trajectory(fast) is shared for fast in fasts)
    return fasts


def row(id, engine, scheme, benches, seed, **kwargs):
    if isinstance(benches, str):
        benches = [benches]
    return pytest.param(engine, scheme, benches, seed, kwargs, id=id)


TRAJ, DRAIN = "trajectory", "drain"
#: The memory shapes besides one plain NVM channel, as run_pair keywords.
MEMORY_ROWS = {
    "2-channel-nvm": dict(channels=2),
    "dram-cache": dict(prepare=attach_dram_cache),
}
WIDE = dict(l1_ways=16)
CRASH_AT = N // 2 + 137  # mid-epoch, not on a boundary
W2 = MULTIPROGRAM_MIXES["W2"]

ROWS = [
    # One core. hmmer is hit-dominated (runs of hits hold hundreds of
    # stores, written in bulk), lbm/h264ref run-structured, gcc/mcf/astar
    # miss-heavy; every scheme runs a miss-heavy trace, covering the
    # replay's three store-filter modes.
    *[row("full-%s-%s" % pair, TRAJ, *pair, 77) for pair in (
        ("ideal", "hmmer"), ("journaling", "mcf"), ("shadow", "gcc"),
        ("frm", "lbm"), ("thynvm", "astar"), ("picl", "hmmer"),
        ("picl", "gcc"), ("picl", "h264ref"), ("ideal", "gcc"),
        ("frm", "astar"), ("thynvm", "mcf"), ("picl", "astar"),
        ("picl", "lbm"), ("shadow", "mcf"))],
    *[row("crash-at-" + s, TRAJ, s, "gcc", 9, crash_at=CRASH_AT, must_crash=True)
      for s in SCHEMES],
    # Site crashes deep enough to fire from a miss-heavy phase: deferred
    # counters, tokens and silent stores must all land before the signal
    # escapes.
    row("site-llc_eviction-picl-300", TRAJ, "picl", "gcc", 5,
        site="llc_eviction", occurrence=300, must_crash=True),
    row("site-llc_eviction-journaling-15", TRAJ, "journaling", "gcc", 5,
        site="llc_eviction", occurrence=15, must_crash=True),
    row("site-undo_flush-picl-torn", TRAJ, "picl", "gcc", 5,
        site="undo_flush", tear=7, must_crash=True),
    row("site-pre_inplace-picl-200", TRAJ, "picl", "gcc", 5,
        site="pre_inplace", occurrence=200, must_crash=True),
    *[row("site-%s-%s-3" % (site, s), TRAJ, s, "gcc", 5, site=site)
      for site in SEMANTIC_SITES for s in ("picl", "frm", "journaling")],
    # 16 B tracking and a hard log cap turn picl's store filter off:
    # every store calls on_store.
    *[row("sub-block-" + b, TRAJ, "picl", b, 21, granularity=16)
      for b in ("lbm", "gcc")],
    *[row("log-cap-" + b, TRAJ, "picl", b, 33, log_cap=64 * MB)
      for b in ("lbm", "gcc")],
    # The tag pass's mirror indexes any associativity.
    *[row("l1-%d-way-%s-%s" % (w, s, b), TRAJ, s, b, 61, l1_ways=w)
      for w in (2, 3, 8) for s, b in (("picl", "hmmer"), ("frm", "gcc"))],
    # On hmmer the crashes land inside long runs of hits; the third undo
    # flush tears after one entry, ~60% of the way in.
    row("lazy-crash-at-hmmer", TRAJ, "picl", "hmmer", 83, crash_at=CRASH_AT,
        must_crash=True),
    # The same stop under a True store filter: it lands in a segment
    # that holds no event, inside a run of hits written in bulk.
    *[row("lazy-crash-at-hmmer-" + s, TRAJ, s, "hmmer", 83, crash_at=CRASH_AT,
          must_crash=True) for s in ("ideal", "frm")],
    row("lazy-site-undo_flush-hmmer", TRAJ, "picl", "hmmer", 89, n=400_000,
        site="undo_flush", tear=1, must_crash=True),
    # PiCL's cross-epoch store hits, each run through on_store at its own
    # cycle among the silent stores written in bulk. At scale 128 the
    # write-hot sc-hit traces store to more lines in one run of hits of a
    # short epoch than the undo buffer holds, so flushes issue inside
    # runs of hits; the crash row's third flush tears inside one.
    *[row("cross-epoch-cut-" + b, TRAJ, "picl", b, 77, scale=128,
          epoch_instructions=ep)
      for b, ep in (("povray", 15_000), ("namd", 8_000))],
    row("cross-epoch-l1-2-way-gobmk", TRAJ, "picl", "gobmk", 5, n=200_000,
        scale=256, l1_ways=2, epoch_instructions=2_500),
    row("cross-epoch-cut-site-undo_flush-namd", TRAJ, "picl", "namd", 77,
        scale=128, epoch_instructions=8_000, site="undo_flush", occurrence=3,
        tear=1, must_crash=True),
    # Epoch boundaries cutting runs of hits written in bulk under a True
    # store filter, where no store runs on_store.
    *[row("bulk-cut-%s-%s" % (s, b), TRAJ, s, b, 77, scale=128,
          epoch_instructions=ep)
      for s, b, ep in (("ideal", "povray", 15_000), ("frm", "namd", 8_000))],
    # One core, every engine string.
    row("4-way-l1", TRAJ, "picl", "gcc", 19),
    row("16-way-l1-undo-flush-crash", TRAJ, "picl", "gcc", 19, **WIDE,
        site="undo_flush", tear=7, must_crash=True),
    row("2-channel-nvm", TRAJ, "picl", "gcc", 19, channels=2),
    row("dram-cache", TRAJ, "picl", "gcc", 19, prepare=attach_dram_cache,
        expect=(("dram.hits", 1),)),
    row("plain-sink", TRAJ, "ideal", "gcc", 19, prepare=attach_plain_sink),
    row("counting-sink", TRAJ, "ideal", "gcc", 19,
        prepare=attach_counting_sink,
        expect=(("sink.on_store_calls", 1),)),
    row("reference", REFERENCE, "picl", "gcc", 19),
    # A torn undo flush and a late LLC eviction on each memory shape
    # (and on two cores below): crashes inside the miss chain's NVM and
    # DRAM-cache traffic.
    *[row("%s-site-%s" % (name, site), TRAJ, "picl", "gcc", 5, site=site,
          occurrence=occurrence, tear=tear, must_crash=True, **memory)
      for name, memory in MEMORY_ROWS.items()
      for site, occurrence, tear in (("undo_flush", 3, 7),
                                     ("llc_eviction", 300, None))],
    # One core, a 16-way L1 (lbm's same-line runs are long), with picl's
    # store filter on, off (16 B tracking, a log cap) and through a
    # crash.
    *[row("wide-full-%s-%s" % pair, TRAJ, *pair, 77, **WIDE) for pair in (
        ("journaling", "mcf"), ("shadow", "gcc"), ("picl", "hmmer"),
        ("picl", "gcc"), ("frm", "lbm"), ("picl", "lbm"),
        ("journaling", "lbm"))],
    *[row("wide-crash-at-" + s, TRAJ, s, "gcc", 9, **WIDE, crash_at=CRASH_AT,
          must_crash=True) for s in SCHEMES],
    row("wide-crash-at-picl-lbm", TRAJ, "picl", "lbm", 9, **WIDE,
        crash_at=CRASH_AT, must_crash=True),
    row("wide-sub-block-lbm", TRAJ, "picl", "lbm", 21, **WIDE, granularity=16),
    row("wide-log-cap-lbm", TRAJ, "picl", "lbm", 33, **WIDE, log_cap=64 * MB),
    *[row("wide-%d-channel-nvm" % c, TRAJ, "picl", "gcc", 3, n=20_000,
          **WIDE, channels=c) for c in (4, 2)],
    # Several cores: turn lengths shrink as the heap fills; shared
    # memory adds cross-core snoops and back-invalidations.
    *[row("mc%d-%s" % (c, "shared" if sh else "private"), DRAIN, "picl",
          benchlist(c), 11, n=N_MC, shared=sh)
      for c in (2, 4, 8) for sh in (False, True)],
    *[row("mc4-" + s, DRAIN, s, benchlist(4, 1), 23, n=N_MC) for s in SCHEMES],
    row("mc2-sub-block", DRAIN, "picl", benchlist(2), 31, n=N_MC,
        granularity=16),
    # The benchmark's ACS-heavy point: W2 at scale 16, 4 MB of LLC per
    # core, an epoch every 4096 system instructions, mostly mid-turn.
    row("mc8-w2-short-epochs", DRAIN, "picl", W2, 61, n=8192, scale=16,
        llc_size_per_core=4 * MB, epoch_instructions=512,
        expect=(("commits", 11), ("acs.scans", 1))),
    row("mc2-2-channel-nvm", DRAIN, "picl", benchlist(2), 71, n=N_MC,
        channels=2),
    row("mc2-dram-cache", DRAIN, "frm", benchlist(2, 1), 73, n=N_MC,
        prepare=attach_dram_cache, expect=(("dram.hits", 1),)),
    row("mc2-plain-sink", DRAIN, "ideal", benchlist(2), 73, n=N_MC,
        prepare=attach_plain_sink),
    row("mc2-counting-sink", DRAIN, "ideal", benchlist(2), 73, n=N_MC,
        prepare=attach_counting_sink,
        expect=(("sink.on_store_calls", 1),)),
    *[row("mc2-%s-site-%s" % (name, site), DRAIN, "picl", ["gcc", "mcf"], 83,
          n=N_MC, site=site, occurrence=occurrence, tear=tear,
          must_crash=True, **memory)
      for name, memory in MEMORY_ROWS.items()
      for site, occurrence, tear in (("undo_flush", 3, 1),
                                     ("llc_eviction", 300, None))],
    # crash_at counts all cores' instructions, so the stop lands mid-turn.
    *[row("mc4-crash-at-" + s, DRAIN, s, benchlist(4), 43, n=N_MC,
          crash_at=N_MC * 2 + 137, must_crash=True) for s in SCHEMES],
    *[row("mc2-site-" + site, DRAIN, "picl", benchlist(2, 2), 53, n=N_MC,
          site=site, occurrence=5, tear=1 if site == SITE_UNDO_FLUSH else None)
      for site in SEMANTIC_SITES],
    # A late LLC-eviction crash escapes mid-chain with a nonzero gap in
    # flight, after commits exist to recover to.
    row("mc2-mid-chain-gap", DRAIN, "picl", ["gcc", "mcf"], 83, n=N_MC,
        epoch_instructions=1024, site="llc_eviction", occurrence=300,
        must_crash="mid-chain", expect=(("commits", 1),)),
]


@pytest.mark.parametrize("engine,scheme,benches,seed,kwargs", ROWS)
def test_row(engine, scheme, benches, seed, kwargs):
    run_pair(engine, scheme, benches, seed, **kwargs)


def longest_store_run(trace):
    """The longest run of consecutive stores to one line in ``trace``."""
    best = run = 0
    previous = None
    for chunk in trace.chunks():
        for addr, write in zip(chunk.addrs, chunk.writes):
            if not write:
                run = 0
            elif run and addr == previous:
                run += 1
            else:
                run = 1
            previous = addr
            best = max(best, run)
    return best


@pytest.mark.parametrize("n_cores", (2, 8))
@pytest.mark.parametrize("scheme,plain", [
    pytest.param("picl", False, id="picl"),
    pytest.param("journaling", False, id="journaling"),
    pytest.param("ideal", True, id="plain-sink"),
])
def test_every_store_calls_on_store(scheme, plain, n_cores):
    """The drain calls the sink's ``on_store`` for every store, at the
    access's cycle, whatever its ``vector_store_filter()``: an EID
    (picl), False (journaling) or True (a plain sink, whose ``on_store``
    here only counts). Both sides record the same ``(core, line,
    cycle)`` calls. Core 0 runs lbm, whose trace holds runs of six or
    more stores to one line: a shortcut that batched repeated stores
    would drop calls there."""
    logs = []

    def record(sim):
        if plain:
            attach_plain_sink(sim)
        sink = sim.hierarchy.sink
        on_store = sink.on_store
        calls = []
        logs.append(calls)

        def recorded(core, line, now):
            calls.append((core, line.addr, now))
            return on_store(core, line, now)

        sink.on_store = recorded

    benches = ["lbm"] + benchlist(n_cores - 1)
    n = N_MC if n_cores == 2 else N_MC // 4
    fast = run_pair(DRAIN, scheme, benches, 11, n=n, prepare=record)
    assert longest_store_run(fast.traces[0]) >= 6
    drain_calls, reference_calls = logs
    assert len(drain_calls) == fast.stats.get("stores")
    assert drain_calls == reference_calls


@pytest.mark.parametrize("bench", ["mcf", "gcc"])
def test_one_definition(bench, monkeypatch):
    """Each scheme rule is defined once: a mutant of PiCL's hazard flush
    (the undo-before-in-place ordering) reaches both engines alike."""
    monkeypatch.setattr(UndoBuffer, "eviction_hazard", lambda *args: 0)
    fast = run_pair(TRAJ, "picl", [bench], 7)
    assert fast.stats.get("undo.forced_flushes") == 0


@pytest.mark.parametrize("engine,benches", [
    pytest.param(TRAJ, ["mcf"], id=TRAJ),
    pytest.param(DRAIN, ["gcc", "mcf"], id=DRAIN),
])
def test_one_cache_definition(engine, benches, monkeypatch):
    """Each cache rule is defined once: a mutant demand fill, one cycle
    slower, reaches both engines alike — and does change the run."""
    plain = run_pair(engine, "picl", benches, 7, n=N_MC)
    demand_fill = MemoryController.demand_fill

    def slower(self, line_addr, now):
        latency, token = demand_fill(self, line_addr, now)
        return latency + 1, token

    monkeypatch.setattr(MemoryController, "demand_fill", slower)
    mutant = run_pair(engine, "picl", benches, 7, n=N_MC)
    assert ([c.cycle for c in mutant.cores]
            != [c.cycle for c in plain.cores])


#: One trajectory, six schemes: miss-heavy and hit-dominated traces,
#: picl's store filter off (16 B tracking, a log cap), the L1 at both
#: ends of its width, an ACS-heavy point, and crashes by instruction
#: count and at every semantic site.
SHARED_ROWS = [
    pytest.param(["gcc"], 77, {}, id="gcc"),
    pytest.param(["hmmer"], 77, dict(n=N // 2), id="hmmer"),
    pytest.param(["lbm"], 21, dict(n=N // 2, granularity=16),
                 id="sub-block-lbm"),
    pytest.param(["mcf"], 33, dict(n=N // 2, log_cap=64 * MB),
                 id="log-cap-mcf"),
    *[pytest.param(["astar"], 61, dict(n=N // 2, l1_ways=w),
                   id="l1-%d-way-astar" % w) for w in (2, 16)],
    pytest.param(["gcc"], 61, dict(
        n=2048 * 32, scale=16, llc_size_per_core=4 * MB,
        epoch_instructions=2048), id="acs-heavy-gcc"),
    pytest.param(["gcc"], 9, dict(crash_at=CRASH_AT, must_crash=True),
                 id="crash-at"),
    *[pytest.param(["gcc"], 5, dict(
        site=site, tear=1 if site == SITE_UNDO_FLUSH else None),
        id="site-" + site) for site in SEMANTIC_SITES],
    pytest.param(["gcc"], 5, dict(site="llc_eviction", occurrence=300),
                 id="site-llc_eviction-300"),
]


@pytest.mark.parametrize("benches,seed,kwargs", SHARED_ROWS)
def test_shared_batch(benches, seed, kwargs):
    run_shared_batch(TRAJ, benches, seed, **kwargs)


LEVELS = ("l1.hits", "l2.misses", "llc.misses")


def level_counts(trajectory, n_refs):
    """The ``LEVELS`` counters as the trajectory records them for its
    first ``n_refs`` references."""
    codes = np.concatenate([chunk[0] for chunk in trajectory.chunks])[:n_refs]
    levels = np.bincount(codes & LEVEL, minlength=4)
    return {
        "l1.hits": int(levels[L1_HIT]),
        "l2.misses": int(levels[LLC_HIT] + levels[LLC_MISS]),
        "llc.misses": int(levels[LLC_MISS]),
    }


def check_level_counts(schemes, benches, seed, n=N, crash_at=None, site=None,
                       occurrence=3, tear=None, must_crash=False, expect=(),
                       **config):
    """Every scheme's level counters, on its own fast engine run (which
    tags or replays the trajectory the trace memo keeps), equal the level
    counts of a trajectory tagged apart from it; ``expect`` is checked on
    the first scheme. A crash may leave one reference in
    flight: its level is counted but it never retired."""
    trajectory = tagged_trajectory(benches, seed, n, **config)
    config = small_config(len(benches), **config)
    for scheme in schemes:
        plan = None if site is None else CrashPlan.on_event(
            site, occurrence=occurrence, tear_entries=tear
        )
        sim = run_mode(TRAJ, config, scheme, benches, n, seed, crash_at=crash_at,
                       crash_plan=plan)
        assert sim.crashed or not must_crash
        if scheme == schemes[0]:
            for stat, minimum in expect:
                assert sim.stats.get(stat) >= minimum, stat
        counts = {stat: sim.stats.get(stat) for stat in LEVELS}
        refs = sim.stats.get("loads") + sim.stats.get("stores")
        assert counts in (level_counts(trajectory, refs),
                          level_counts(trajectory, refs + 1)), scheme


def led_by(scheme):
    """All six schemes, ``scheme`` (the one ``expect`` checks) first."""
    return (scheme,) + tuple(s for s in SCHEMES if s != scheme)


#: The journaling point overflows its translation table into forced
#: commits, the picl one runs ACS every few thousand instructions, and
#: every site-* row of ROWS crashes mid-run.
COUNT_ROWS = [
    pytest.param(led_by("journaling"), ["mcf"], 77, dict(
        expect=(("commits.forced", 1),)), id="journaling-overflow-commit"),
    pytest.param(led_by("picl"), ["gcc"], 61, dict(
        n=2048 * 32, scale=16, llc_size_per_core=4 * MB,
        epoch_instructions=2048, expect=(("acs.scans", 2),)),
        id="picl-acs-heavy"),
    *[pytest.param((p.values[1],), p.values[2], p.values[3], p.values[4],
                   id=p.id) for p in ROWS if p.id.startswith("site-")],
]


@pytest.mark.parametrize("schemes,benches,seed,kwargs", COUNT_ROWS)
def test_level_counts(schemes, benches, seed, kwargs):
    check_level_counts(schemes, benches, seed, **kwargs)


@pytest.mark.parametrize("source", ("memo", "fresh", "file"))
def test_trace_source(source, monkeypatch, tmp_path):
    # Every source builds its chunks through the same frozen-chunk
    # constructor; the lazy tag pass tags whichever chunks it is given.
    factory = None
    if source == "fresh":
        monkeypatch.setattr(synthetic, "_TRACE_MEMO_MAX_REFS", -1)
    elif source == "file":
        path = tmp_path / "hmmer.npz"
        recorder = Simulation(small_config(), "picl", ["hmmer"], N, seed=71)
        save_trace(path, recorder.traces[0])

        def factory():
            return load_trace(path)

    fast = run_pair(TRAJ, "picl", ["hmmer"], 71, trace=factory)
    cls = {"memo": MaterializedTrace, "fresh": SyntheticTrace,
           "file": RecordedTrace}[source]
    assert isinstance(fast.traces[0], cls)


def expected_engine(n_cores):
    """The engine a config must run: every config runs fast."""
    return TRAJ if n_cores == 1 else DRAIN


# Every axis the trace generator exposes, constrained exactly as
# WorkloadProfile.__post_init__ demands.
fuzz_profiles = st.builds(
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


#: The fuzz's shapes, one per fast-engine path: one core tagging its
#: own trace (``trajectory``), several cores (``drain``), and one core
#: replaying a shared trajectory under all six schemes (``trajectory``;
#: the drawn scheme is unused). Each shape gets its own share of the
#: examples and draws every other axis; together they cover cores
#: {1, 2, 4, 8} x L1 ways {2, 4, 8, 16}.
SHAPES = {
    "lone-point": ((1,), (2, 4, 8, 16)),
    "multi-core": ((2, 4, 8), (2, 4, 8, 16)),
    "shared-batch": ((1,), (2, 4, 8, 16)),
}


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=9, deadline=None)
@given(
    data=st.data(),
    profile=fuzz_profiles,
    rotate=st.integers(0, len(BENCHES) - 1),
    scheme=st.sampled_from(SCHEMES),
    shared=st.booleans(),
    granularity=st.sampled_from((64, 16)),
    log_cap=st.sampled_from((None, 64 * MB)),
    # One draw in eight runs on a memory shape other than one plain NVM
    # channel; the curated rows pin each of them (MEMORY_ROWS).
    memory=st.sampled_from((None,) * 14 + tuple(MEMORY_ROWS)),
    crash=st.one_of(
        st.none(),
        st.floats(0.2, 0.9),  # crash at this fraction of the run
        st.sampled_from(SEMANTIC_SITES),
    ),
    seed=st.integers(0, 2**20),
)
def test_fuzz(shape, data, profile, rotate, scheme, shared, granularity,
              log_cap, memory, crash, seed):
    cores, ways = SHAPES[shape]
    n_cores = data.draw(st.sampled_from(cores), "n_cores")
    l1_ways = data.draw(st.sampled_from(ways), "l1_ways")
    # Core 0 runs the drawn profile, the others named benchmarks.
    # Simulation resolves benchmarks by name, so the profile is parked
    # in the registry for the two runs; the trace memo keys on the
    # profile's value, so same-name profiles never collide.
    n = 20_000 if n_cores == 1 else 12_000
    kwargs = dict(n=n, shared=shared, granularity=granularity,
                  log_cap=log_cap, l1_ways=l1_ways)
    if memory is not None:
        kwargs.update(MEMORY_ROWS[memory])
    if isinstance(crash, float):
        kwargs.update(crash_at=int(n * n_cores * crash), must_crash=True)
    elif crash is not None:
        kwargs.update(site=crash, tear=1 if crash == SITE_UNDO_FLUSH else None)
    engine = expected_engine(n_cores)
    benches = ["_fuzz"] + benchlist(n_cores - 1, rotate)
    profiles._BY_NAME["_fuzz"] = profile
    try:
        if shape == "shared-batch":
            run_shared_batch(engine, benches, seed, **kwargs)
        else:
            run_pair(engine, scheme, benches, seed, **kwargs)
    finally:
        del profiles._BY_NAME["_fuzz"]
