"""The simulation driver.

Builds a system from a :class:`repro.sim.config.SystemConfig`, attaches a
scheme, and drives one synthetic trace per core through it. Cores are
interleaved by always advancing the one with the earliest clock, so shared
resources (LLC, NVM channels) see a roughly time-ordered request stream.

Epoch boundaries fire when the system-wide instruction count crosses
multiples of ``epoch_instructions * n_cores`` (for a single core this is
exactly the paper's instruction-count epochs); overflow-forced commits
happen inside the schemes' ``on_store`` hooks. Scheduled-commit stalls are
stop-the-world (charged to every core); overflow stalls are charged to the
offending core, with the other cores slowed naturally by NVM backpressure.

Crash injection: pass ``crash_at_instructions`` to stop mid-run, or a
:class:`repro.fault.CrashPlan` as ``crash_plan`` to power-fail at a
*semantic* event (mid-undo-flush, eviction-before-log-write, mid-ACS
scan, …); then call :meth:`Simulation.crash_and_recover` to lose all
volatile state, run the scheme's recovery, and get back the recovered
image together with the reference snapshot it must match.
"""

import heapq

import numpy as np

from repro.baselines import Frm, IdealNvm, Journaling, ShadowPaging, ThyNvm
from repro.baselines.base import CrashConsistencyScheme
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine, LineState
from repro.cache.miss_engine import CoreTurns, MissChainEngine, decline_reason
from repro.cache.trajectory import PrivateCopies, Trajectory, geometry
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatCounters
from repro.core.picl import PiclScheme
from repro.cpu.core import CoreState
from repro.fault.plan import CrashSignal
from repro.cpu.system import System
from repro.mem.controller import MemoryController
from repro.mem.nvm import AccessCategory
from repro.sim.results import SimulationResult
from repro.trace.profiles import get_profile
from repro.trace.synthetic import make_trace

#: Address-space stride between cores (programs never share lines).
_CORE_ADDR_STRIDE = 1 << 40

#: Columnar interpreter: shortest all-fast stretch (in references *and* in
#: coalescing groups) worth bulk application; anything shorter replays
#: through the drain, whose run-coalescing covers it in O(groups).
_BULK_MIN = 8

#: Bulk stretches spanning at least this many coalescing groups use the
#: numpy reductions in bulk_span; sparser ones use its plain-Python
#: group-at-a-time path (less per-call setup).
_NUMPY_BULK_MIN = 64

#: Classification window bounds: the lookahead doubles from the initial
#: size while windows stay fully fast and productive, and halves when
#: bulk application comes up short.
_WINDOW_INIT = 256
_WINDOW_MIN = 128
_WINDOW_MAX = 4096

#: After this many consecutive unproductive windows the interpreter
#: disengages into a drain burst before probing again, so miss-heavy
#: phases pay ~zero classification overhead. Bursts start at
#: _DISENGAGE_REFS references and double up to _DISENGAGE_MAX while
#: re-probes keep failing (geometric backoff), so a workload the columnar
#: path never helps converges to pure drain speed while still noticing a
#: phase change within ~_DISENGAGE_MAX references.
_SHORT_LIMIT = 2
_DISENGAGE_REFS = 4096
_DISENGAGE_MAX = 65536

#: A mirror row's match bytes read as one word (see TagMirror), and
#: the multiplier that moves the index of its one set byte to the top.
_ROW_WORD = np.dtype("<u8")
_WAY_OF_BYTE = np.uint64(0x0001020304050607)

SCHEME_NAMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


class _TraceCursor:
    """Positional reader over a trace's chunks.

    Indexes the chunk's parallel gap/addr/write lists directly so the
    reference loop never materializes a per-reference tuple.
    """

    __slots__ = ("_chunks", "gaps", "addrs", "writes", "pos", "n")

    def __init__(self, trace):
        self._chunks = trace.chunks()
        self.gaps = self.addrs = self.writes = ()
        self.pos = 0
        self.n = 0

    def advance(self):
        """Load the next chunk; returns False when the trace is exhausted."""
        chunk = next(self._chunks, None)
        if chunk is None:
            return False
        self.gaps = chunk.gaps
        self.addrs = chunk.addrs
        self.writes = chunk.writes
        self.pos = 0
        self.n = len(chunk.gaps)
        return True


def build_scheme(name, system, config):
    """Instantiate a scheme by name with the config's parameters."""
    if name == "ideal":
        return IdealNvm(system)
    if name == "journaling":
        return Journaling(
            system, config.journal_table_entries, config.table_assoc
        )
    if name == "shadow":
        return ShadowPaging(
            system, config.shadow_table_entries, config.table_assoc
        )
    if name == "frm":
        return Frm(system)
    if name == "thynvm":
        return ThyNvm(
            system,
            config.thynvm_block_entries,
            config.thynvm_page_entries,
            config.table_assoc,
        )
    if name == "picl":
        return PiclScheme(system, config.picl)
    raise ConfigurationError(
        "unknown scheme %r; known: %s" % (name, ", ".join(SCHEME_NAMES))
    )


class Simulation:
    """One system + one scheme + one trace per core.

    ``shared_memory=False`` (the default, the paper's multiprogram rate
    mode) gives every core a disjoint address space; ``True`` makes all
    cores address one shared working set — a multithreaded workload whose
    cross-core stores exercise coherence, undo forwarding, and recovery
    under sharing.
    """

    def __init__(
        self,
        config,
        scheme_name,
        benchmarks,
        n_instructions,
        seed=1234,
        shared_memory=False,
    ):
        if isinstance(benchmarks, str):
            benchmarks = [benchmarks]
        if len(benchmarks) != config.n_cores:
            raise ConfigurationError(
                "%d benchmarks for %d cores" % (len(benchmarks), config.n_cores)
            )
        self.shared_memory = shared_memory
        self.config = config
        self.scheme_name = scheme_name
        self.benchmarks = list(benchmarks)
        self.n_instructions = n_instructions
        self.stats = StatCounters()
        self.controller = MemoryController(config.nvm, self.stats)
        self.hierarchy = CacheHierarchy(
            self.controller,
            n_cores=config.n_cores,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l1_latency=config.l1_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            llc_size_per_core=config.llc_size_per_core,
            llc_assoc=config.llc_assoc,
            llc_latency=config.llc_latency,
            line_size=config.line_size,
            store_miss_factor=config.store_miss_factor,
            stats=self.stats,
        )
        self.cores = [CoreState(i) for i in range(config.n_cores)]
        self.system = System(
            self.controller,
            self.hierarchy,
            self.cores,
            stats=self.stats,
            epoch_handler_cycles=config.epoch_handler_cycles,
            track_reference=config.track_reference,
            reference_depth=config.reference_depth,
        )
        self.scheme = build_scheme(scheme_name, self.system, config)
        self.seed = seed
        self.traces = [self._make_trace(core_id) for core_id in range(config.n_cores)]
        self.crashed = False
        #: The semantic crash site that fired (None for clean runs and
        #: instruction-count crashes).
        self.crash_site = None
        #: Which interpreter ran, set by run(): ``"trajectory"`` for a
        #: replayed trajectory, ``"columnar+drain"`` or ``"drain"`` for
        #: the fast engine, or ``"reference: <reason>"`` when it declined
        #: — e.g. ``"reference: nvm has 2 channels"``.
        self.engine = None
        self._ran = False

    def _make_trace(self, core_id):
        """A fresh reference stream for ``core_id`` (memo hits share the
        generated chunks; see :func:`repro.trace.synthetic.make_trace`)."""
        profile = self.config.scale_profile(get_profile(self.benchmarks[core_id]))
        return make_trace(
            profile,
            self.n_instructions,
            seed=self.seed + core_id * 101,
            addr_base=0 if self.shared_memory else core_id * _CORE_ADDR_STRIDE,
        )

    def trajectory(self):
        """The scheme-free cache trajectory of this single-core point: a
        tag pass over a fresh copy of its trace on its cache geometry,
        which every point with the same trace and geometry can replay
        (see :meth:`run`). None when the point would not replay one:
        several cores, or a config the fast engine declines."""
        if (
            len(self.cores) != 1
            or not self.hierarchy.vector
            or decline_reason(self) is not None
        ):
            return None
        return Trajectory(self._make_trace(0), geometry(self.hierarchy))

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self, crash_at_instructions=None, crash_plan=None, trajectory=None):
        """Drive the traces to completion (or to the crash point).

        ``crash_plan`` injects a semantic-event crash (see
        :mod:`repro.fault.plan`): instruction-count plans fold into
        ``crash_at_instructions``; site plans install hooks on the
        hierarchy/scheme and power-fail by raising ``CrashSignal`` from
        inside the crash window. A plan whose site is never reached lets
        the run complete (check ``crash_plan.fired``).

        ``trajectory`` (from :meth:`trajectory` on a point with the same
        trace and cache geometry) splits a single-core run in two. On one
        core the cache outcome does not depend on the scheme: LRU
        replacement follows the reference order alone, and no scheme
        moves a line in or out of a cache — flushes and ACS scans clean
        lines in place. So a scheme-free *tag pass* records once which
        level served each reference and which line each L1/L2 fill
        evicted, and this run only *replays* it (:meth:`_run_replay`,
        engine ``"trajectory"``): misses, stores, victims and epoch
        boundaries under this scheme, with the runs of L1 load hits
        between them retired in bulk. A batch of points sharing the
        trace and geometry (``repro.sim.parallel``) pays for one tag pass.
        Configs the fast engine declines ignore the trajectory.
        """
        if self._ran:
            raise ConfigurationError("a Simulation object runs exactly once")
        self._ran = True
        if crash_plan is not None:
            if crash_plan.at_instructions is not None:
                if crash_at_instructions is None:
                    crash_at_instructions = crash_plan.at_instructions
                else:
                    crash_at_instructions = min(
                        crash_at_instructions, crash_plan.at_instructions
                    )
            else:
                crash_plan.install(self)
        try:
            # REPRO_VECTOR=0 (read when the hierarchy was built) selects
            # the reference loop, and so does every config the miss-chain
            # drain declines; everything else runs the fast engine.
            if self.hierarchy.vector:
                reason = decline_reason(self)
            else:
                reason = "REPRO_VECTOR=0"
            if reason is not None:
                self.engine = "reference: " + reason
                # Nothing classifies against the L1 mirror here: detach
                # it so the cache paths stop queueing updates for it.
                self.hierarchy._l1[0]._vec = None
                self._run_reference(crash_at_instructions)
            elif trajectory is not None:
                if len(self.cores) != 1 or trajectory.geometry != geometry(
                    self.hierarchy
                ):
                    raise ConfigurationError(
                        "trajectory geometry does not match this simulation"
                    )
                self.engine = "trajectory"
                self._run_replay(crash_at_instructions, trajectory)
            elif len(self.cores) == 1:
                columnar = self.hierarchy._l1[0]._vec is not None
                self.engine = "columnar+drain" if columnar else "drain"
                self._run_single_core(crash_at_instructions, MissChainEngine(self))
            else:
                self.engine = "drain"
                self._run_multi_core_drain(
                    crash_at_instructions, MissChainEngine(self)
                )
            if not self.crashed:
                stall = self.scheme.finalize(self.system.max_cycle())
                self.system.broadcast_stall(stall)
        except CrashSignal as signal:
            self.crashed = True
            self.crash_site = signal.site
        return self.result()

    def _run_single_core(self, crash_at_instructions, engine):
        """The single-core driver: boundary-free segments, drained or bulked.

        Each chunk is segmented at the epoch/crash boundaries up front
        (its cumulative instruction counts searched against the next
        boundary), so nothing inside a segment compares against a
        boundary. Instruction counters are synced at segment ends, and
        where a ``CrashSignal`` escapes the drain; nothing observes them
        in between.

        References that must replay exactly go to the fused miss-chain
        drain (:meth:`repro.cache.miss_engine.MissChainEngine.make_drain`),
        which also coalesces the tail of a run of consecutive references
        to one line (``chunk.run_ends``) when the repeats provably cannot
        change cache or scheme state.

        Without an L1 mirror (an L1 wider than a mirror row) every
        segment goes to the drain whole. With one, the driver is the
        *columnar interpreter*: within each segment it repeatedly:

        1. **Classifies a window.** Set indices and an L1 tag probe for the
           next ``window`` references in numpy against the L1's live tag
           mirror (:class:`repro.cache.vector_mirror.TagMirror`). A
           reference is *fast* when it is a classified L1 hit the scheme
           lets the walk apply: every load hit, plus the store hits the
           scheme's ``vector_store_filter`` admits — all of them, none,
           or, under an EID filter (PiCL), all of them again, those to
           lines tagged otherwise being cross-epoch stores. For an EID
           filter the same pass lists the window's *cross positions*:
           each mirror slot's first store hit, where the slot's EID is
           not the filter's. Everything else is *residual*. The probe has
           no row reduction:
           the mirror's rows are padded to eight ways, so each reference's
           row of matches is one 64-bit word, nonzero on a hit, whose one
           set byte names the way — and with it the reference's mirror
           slot ``set * ways + way``.
        2. **Bulk-applies all-fast stretches.** A stretch of consecutive
           fast references is applied at once: cycle/stall arithmetic from
           the cumulative metadata, bulk counter bumps, MRU reordering in
           last-touch order, last-write tokens per line — exactly the
           state the references would have left one by one. Per-line
           order comes from per-slot last-touch, first-store and
           last-store positions (scatter max/min over the mirror's slots,
           no sort). That is sound because slots and addresses map one to
           one within a stretch: the mirror was exact when the window was
           classified, it holds each resident line in exactly one slot,
           and a line evicted mid-window has its remaining fast
           references demoted (step 3) before any stretch reaches them.
           A cross-epoch store hit takes the scheme's own ``on_store``,
           once per line, in first-store order, before the line's token
           is written: that is its undo entry's FIFO position and its
           LLC retag's EID-index order. A stretch holds at most the scheme's
           ``vector_store_room`` of them and ends just before the one
           past it, which replays exactly, so an undo-buffer flush never
           runs inside a stretch and keeps its exact issue cycle.
           Applying a fast stretch cannot change residency, and it
           retags lines only to the filter's EID, so it can never
           invalidate its own classification.
        3. **Replays residuals exactly** through the drain, so misses,
           evictions, undo logging, and crash-plan sites behave
           identically. A residual's evictions CAN invalidate the rest of
           the window (a classified hit whose line just left — the
           stale-positive direction; see vector_mirror's docstring), so the
           mirror logs removals and the loop demotes the victims'
           remaining fast positions to residual after every replay.
           Residual side effects can also flip references the *other* way
           (a residual fill makes a later classified miss a hit); those
           stay residual and replay exactly, which is merely conservative.

        Only exact replays read the chunk one reference at a time, so only
        they box it: the chunk's Python lists start unthawed, and every
        replay first thaws from the reference before its start to the end
        of the same-line run holding its last reference (the furthest a
        coalescing tail reaches), and the plain-Python bulk path thaws its
        stretch. Everything else — segmentation, the window tuner, the
        cumulative ends of a bulk stretch — reads the numpy columns as
        ints. On a hit-dominated trace that leaves over 90% of the chunk
        unboxed.

        The loop is self-tuning: the window doubles while classification
        keeps paying off (long fast prefixes) and shrinks when prefixes
        come up short; after a few consecutive short prefixes it disengages
        into a pure drain burst before probing again, so miss-heavy
        workloads pay near-zero classification overhead.

        Bit-identical to the reference loop (:meth:`_run_reference`) —
        same counters, tokens, cycles, NVM image, undo log, recovery
        images — asserted by tests/sim/test_engine_identity.py.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        l1 = hierarchy._l1[0]
        vec = l1._vec
        l1_tags = l1._tags
        l1_sets = l1._sets
        l1_dirty = l1._dirty_lines
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_latency = l1.hit_latency
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        stores = hierarchy._stores
        modified = LineState.MODIFIED
        if vec is not None:
            tags2d = vec.tags2d
            eids = vec.eids
            ways = vec.ways
            n_slots = len(eids)
            removed = vec.removed
            eidq = vec.eidq
        undo = getattr(scheme, "buffer", None)  # PiCL's, for bulk_span
        # Stretch and store ordinals for bulk_span's scatter reductions.
        positions = np.arange(_WINDOW_MAX, dtype=np.int64)
        core = self.cores[0]
        epoch_span = self.config.epoch_instructions
        next_epoch = epoch_span
        track = system.track_reference
        arch_image = system.arch_image
        total = system.total_instructions
        crash = crash_at_instructions
        bulk_min = _BULK_MIN
        window = _WINDOW_INIT
        shorts = 0
        drain_budget = 0
        burst_len = _DISENGAGE_REFS
        productive = False

        try:
            for chunk in self.traces[0].chunks():
                # The lists start unthawed: with a mirror, every exact
                # replay below thaws the range it reads first (see
                # TraceChunk.thaw) and everything else reads the numpy
                # columns; without one, every reference replays, so the
                # whole chunk thaws up front.
                if vec is None:
                    chunk.ensure_metadata()
                gaps, addrs, writes, cum, run_ends, wcum = chunk.lists
                thaw = chunk.thaw
                frozen = chunk.frozen
                np_addrs = frozen.addrs
                np_writes = frozen.writes
                np_cum = frozen.cum
                np_run_ends = frozen.run_ends
                np_rcum = frozen.run_cum
                np_wcum = frozen.write_cum
                n = len(chunk)
                base = total

                def thaw_span(i, stop, seg_end):
                    """Thaw what an exact replay of [i, stop) can read: from
                    reference i-1 to the end of the run holding stop-1."""
                    end = int(np_run_ends[stop - 1])
                    thaw(i - 1, end if end < seg_end else seg_end)

                def bulk_span(
                    s,
                    r,
                    nruns,
                    slots,
                    cross_eid,
                    # Default-arg binding: the group loops below run once
                    # per coalescing group, and locals are materially
                    # faster than closure derefs there.
                    addrs=addrs,
                    run_ends=run_ends,
                    wcum=wcum,
                    core=core,
                    system=system,
                    scheme=scheme,
                    track=track,
                    arch_image=arch_image,
                    l1_tags=l1_tags,
                    l1_sets=l1_sets,
                    l1_dirty=l1_dirty,
                    l1_shift=l1_shift,
                    l1_mask=l1_mask,
                    l1_latency=l1_latency,
                    l1_hits=l1_hits,
                    loads=loads,
                    stores=stores,
                    modified=modified,
                ):
                    """Apply the all-fast stretch [s, r) at once.

                    The aggregate arithmetic (cycles, stalls, counters,
                    token range) is O(1) off the cumulative metadata;
                    per-line state (MRU order, last-write token, dirty bit)
                    is applied once per *distinct* line. The Python path
                    iterates coalescing groups (``run_ends`` jumps), never
                    references, so its cost matches the drain's O(runs);
                    above a run-count crossover the numpy path takes over,
                    keyed on ``slots`` — the stretch's mirror slots, which
                    within one all-fast stretch map one to one onto its
                    addresses.

                    Under an EID filter (``cross_eid``) a stored line
                    tagged otherwise takes one ``on_store`` call before its
                    token is written. None may fill the undo buffer: that
                    flush would issue at the wrong cycle, and a flush can
                    stall 0 cycles, so the buffer is checked first.
                    """
                    k = r - s
                    prev_cum = int(np_cum[s - 1]) if s else 0
                    base_w = int(np_wcum[s - 1]) if s else 0
                    nw = int(np_wcum[r - 1]) - base_w
                    core.cycle += (int(np_cum[r - 1]) - prev_cum) - k + k * l1_latency
                    core.mem_stall_cycles += k * l1_latency
                    l1_hits.bump(k)
                    loads.bump(k - nw)
                    if nw:
                        nt = system._next_token
                        system._next_token = nt + nw
                    if nruns < _NUMPY_BULK_MIN:
                        thaw(s, r)
                        # MRU: one move-to-front per distinct line,
                        # ascending last-touch, so the final order matches
                        # k individual touches (re-inserting moves a key to
                        # the end).
                        order = {}
                        j = s
                        while j < r:
                            addr = addrs[j]
                            if addr in order:
                                del order[addr]
                            order[addr] = None
                            j = run_ends[j]
                        for addr in order:
                            line = l1_tags[addr]
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                        if not nw:
                            return
                        # A line's surviving token is its last store in
                        # the stretch: the last write of the last run that
                        # stores to it, whose ordinal is the cumulative
                        # write count at that run's end (intermediates are
                        # unobservable — the same argument as the drain's
                        # run-coalescing tail). Dict insertion order =
                        # first-store order, matching the dirty dict's
                        # scalar order.
                        last = {}
                        j = s
                        prev_w = base_w
                        while j < r:
                            e = run_ends[j]
                            if e > r:
                                e = r
                            wend = wcum[e - 1]
                            if wend != prev_w:
                                last[addrs[j]] = nt + (wend - base_w) - 1
                                prev_w = wend
                            j = e
                        stored = last.items()
                    else:
                        # Per-slot last touch by scatter-max; the positions
                        # that are their slot's last touch, ascending, give
                        # the MRU order — no sort.
                        a_seg = np_addrs[s:r]
                        pos = positions[:k]
                        last = np.zeros(n_slots, dtype=np.int64)
                        np.maximum.at(last, slots, pos)
                        for addr in a_seg[last[slots] == pos].tolist():
                            line = l1_tags[addr]
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                        if not nw:
                            return
                        # Same argument as the Python path, by store
                        # ordinal: a line keeps the token of its last
                        # store, and lines dirty in first-store order.
                        wpos = np.flatnonzero(np_writes[s:r])
                        wslots = slots[wpos]
                        ords = positions[:nw]
                        first = np.full(n_slots, nw, dtype=np.int64)
                        np.minimum.at(first, wslots, ords)
                        final = np.zeros(n_slots, dtype=np.int64)
                        np.maximum.at(final, wslots, ords)
                        firsts = first[wslots] == ords
                        stored = zip(
                            a_seg[wpos[firsts]].tolist(),
                            (final[wslots[firsts]] + nt).tolist(),
                        )
                    calls = 0
                    for addr, tok in stored:
                        line = l1_tags[addr]
                        if cross_eid is not None and line.eid != cross_eid:
                            if undo is not None and len(undo) + 1 >= undo.capacity:
                                raise SimulationError(
                                    "cross-epoch store to %#x would fill the "
                                    "undo buffer inside a bulk stretch" % addr
                                )
                            scheme.on_store(0, line, core.cycle)
                            eidq.append(line)
                            calls += 1
                        line.token = tok
                        if not line._dirty:
                            line._dirty = True
                            l1_dirty[addr] = line
                        line.state = modified
                        if track:
                            arch_image[addr] = tok
                    stores.bump(nw)
                    scheme.on_store_bulk(nw - calls)

                drain = engine.make_drain(gaps, addrs, writes, cum, run_ends, wcum)

                index = 0
                while index < n:
                    limit = next_epoch - base
                    if crash is not None and crash - base < limit:
                        limit = crash - base
                    seg_end = int(np_cum[index:].searchsorted(limit)) + index + 1
                    if seg_end > n:
                        seg_end = n
                    # ``is True``/``is False`` below: an EID filter value
                    # of 0 or 1 must not be mistaken for the booleans. The
                    # filter is fixed within a segment (the SystemEID only
                    # moves at boundaries, which are segment ends by
                    # construction).
                    sfilter = scheme.vector_store_filter()
                    cross_eid = None if sfilter is True or sfilter is False else sfilter
                    i = index
                    if vec is None:
                        # No mirror to classify against: the whole segment
                        # replays exactly.
                        i = drain(i, seg_end, seg_end, sfilter)
                    while i < seg_end:
                        if drain_budget > 0:
                            # A drain burst. The drain maintains the mirror
                            # queues at its inlined fill/evict sites, so the
                            # mirror stays attached through it.
                            stop = i + drain_budget
                            if stop > seg_end:
                                stop = seg_end
                            thaw_span(i, stop, seg_end)
                            ni = drain(i, stop, seg_end, sfilter)
                            drain_budget -= ni - i
                            i = ni
                            continue
                        if seg_end - i < bulk_min:
                            thaw_span(i, seg_end, seg_end)
                            i = drain(i, seg_end, seg_end, sfilter)
                            break
                        # -- classify the next window against the mirror,
                        #    reconciled here (and only here) with the live
                        #    tags
                        vec.sync(l1_tags)
                        wb = i
                        we = wb + window
                        if we > seg_end:
                            we = seg_end
                        a_win = np_addrs[wb:we]
                        sidx = (a_win >> l1_shift) & l1_mask
                        # One little-endian word per mirror row, byte w set
                        # where way w holds the address: tags are unique in
                        # a set and padding ways never match, so a hit is a
                        # nonzero word with exactly one byte set, 1 << 8w.
                        # Multiplying by 0x0001020304050607 lands w in the
                        # top byte (lower terms stay below it, higher ones
                        # wrap off), giving every reference its slot
                        # set*ways+way.
                        row = (tags2d[sidx] == a_win[:, None]).view(_ROW_WORD).ravel()
                        hit = row != 0
                        slot = sidx * ways + ((row * _WAY_OF_BYTE) >> 56).view(np.int64)
                        cross = ()
                        if sfilter is False:
                            fast = hit & ~np_writes[wb:we]
                        else:
                            fast = hit
                            if cross_eid is not None:
                                # Cross positions: each stale slot's
                                # first store hit (scatter-min).
                                cw = np.flatnonzero(hit & np_writes[wb:we])
                                cw = cw[eids[slot[cw]] != cross_eid]
                                if len(cw):
                                    cs = slot[cw]
                                    first = np.full(n_slots, window, dtype=np.int64)
                                    np.minimum.at(first, cs, cw)
                                    cross = (cw[first[cs] == cw] + wb).tolist()
                        bad = (np.flatnonzero(~fast) + wb).tolist()
                        n_bad = len(bad)
                        if n_bad * 4 >= we - wb:
                            # Residual-dense window (≥25%): the walk's bulk
                            # stretches cannot pay for themselves between
                            # misses, so hand the whole window to the drain
                            # (exact path, no stale-positive bookkeeping
                            # needed). Counted as unproductive below, which
                            # steers persistently miss-heavy phases into
                            # drain bursts with zero classification cost.
                            thaw_span(wb, we, seg_end)
                            i = drain(wb, we, seg_end, sfilter)
                            removed.clear()
                            bulked_runs = 0
                        else:
                            # Fast positions (absolute) and their addresses,
                            # for the stale-positive guard below: only a
                            # victim that the *remaining fast* part of the
                            # window references can invalidate the
                            # classification — residual positions replay
                            # exactly regardless.
                            fpos = np.flatnonzero(fast) + wb
                            fast_addrs = a_win[fast]
                            removed.clear()
                            # -- walk the window: bulk fast stretches,
                            #    replay residuals, revalidate after each
                            #    residual
                            bptr = 0
                            cptr = 0
                            n_cross = len(cross)
                            bulked_runs = 0
                            while i < we:
                                while bptr < n_bad and bad[bptr] < i:
                                    bptr += 1
                                nxt = bad[bptr] if bptr < n_bad else we
                                if n_cross:
                                    # End the stretch at the cross-epoch
                                    # store past the room (drains and
                                    # flushes change it): the drain replays
                                    # it, so its flush keeps its cycle.
                                    while cptr < n_cross and cross[cptr] < i:
                                        cptr += 1
                                    cut = cptr + scheme.vector_store_room()
                                    if cut < n_cross and cross[cut] < nxt:
                                        nxt = cross[cut]
                                if nxt - i >= bulk_min:
                                    # Size the stretch in coalescing groups,
                                    # not references: the drain replays a
                                    # same-line run in O(1), so a long but
                                    # run-sparse stretch is cheaper replayed.
                                    nruns = int(np_rcum[nxt - 1]) - (
                                        int(np_rcum[i - 1]) if i else 0
                                    )
                                    if nruns >= bulk_min:
                                        bulk_span(
                                            i, nxt, nruns, slot[i - wb:nxt - wb], cross_eid
                                        )
                                        bulked_runs += nruns
                                        i = nxt
                                        if i >= we:
                                            break
                                stop = nxt + 1
                                if stop > seg_end:
                                    stop = seg_end
                                thaw_span(i, stop, seg_end)
                                i = drain(i, stop, seg_end, sfilter)
                                if removed:
                                    # Stale-positive guard: a
                                    # classified-fast position whose line
                                    # was just evicted is no longer safe to
                                    # bulk — demote it to residual by
                                    # splicing it into the bad list
                                    # (demotion is always safe: residuals
                                    # replay exactly). Re-adds need no
                                    # check — a classified miss replays
                                    # exactly anyway. This is also what
                                    # keeps a bulk stretch's slots one to
                                    # one with its addresses: a slot freed
                                    # mid-window and refilled by another
                                    # line can only be read through a
                                    # demoted position.
                                    if i < we:
                                        j = int(np.searchsorted(fpos, i))
                                        if j < len(fpos):
                                            tail = fast_addrs[j:]
                                            stale = None
                                            for victim in removed:
                                                m = tail == victim
                                                if m.any():
                                                    if stale is None:
                                                        stale = m
                                                    else:
                                                        stale |= m
                                            if stale is not None:
                                                extra = fpos[j:][stale].tolist()
                                                bad = sorted(bad[bptr:] + extra)
                                                n_bad = len(bad)
                                                bptr = 0
                                    removed.clear()
                        # -- self-tuning: how much of the window's
                        #    coalescing work was actually bulk-applied?
                        creached = int(np_rcum[i - 1]) - (
                            int(np_rcum[wb - 1]) if wb else 0
                        )
                        if bulked_runs * 2 >= creached:
                            shorts = 0
                            productive = True
                            burst_len = _DISENGAGE_REFS
                            if n_bad == 0 and window < _WINDOW_MAX:
                                window *= 2
                        else:
                            if window > _WINDOW_MIN:
                                window //= 2
                            shorts += 1
                            if shorts >= _SHORT_LIMIT:
                                # Classification is not paying off: run a
                                # drain burst before probing again. Back
                                # off geometrically while probes keep
                                # failing.
                                shorts = 0
                                if not productive and burst_len < _DISENGAGE_MAX:
                                    burst_len *= 2
                                productive = False
                                drain_budget = burst_len
                    index = seg_end
                    total = base + int(np_cum[index - 1])
                    if total >= next_epoch:
                        system.total_instructions = total
                        core.instructions = total
                        stall = scheme.on_epoch_boundary(core.cycle)
                        system.broadcast_stall(stall)
                        next_epoch += epoch_span
                    if crash is not None and total >= crash:
                        system.total_instructions = total
                        core.instructions = total
                        self.crashed = True
                        return
                system.total_instructions = total
                core.instructions = total
        except CrashSignal:
            i = engine.inflight
            if i is not None:
                # The signal escaped the drain mid-chain. The reference
                # loop retires a reference's gap before its access chain,
                # so the gap is on the core's clock and instruction count
                # — never on the system total, which moves only after the
                # access. (A crash at an epoch boundary finds the counters
                # already synced above.)
                total = base + (int(np_cum[i - 1]) if i else 0)
                gap = int(frozen.gaps[i])
                system.total_instructions = total
                core.instructions = total + gap
                core.cycle += gap
            raise
        core.finished = True

    def _run_replay(self, crash_at_instructions, trajectory):
        """Replay a scheme-free cache trajectory under this scheme.

        The trajectory (:class:`repro.cache.trajectory.Trajectory`) says
        which level served every reference and which line each L1/L2 fill
        evicted, so nothing here probes a private cache or keeps its LRU
        order. The loop visits only *events* — references that miss L1
        or store — and retires each run of L1 load hits between two
        events in O(1) off the chunk's cumulative instruction counts.
        An event runs the hierarchy's chain on the state a scheme can
        observe: the LLC (tags, MRU lists, dirty lines, EID index; a fill
        goes through ``CacheHierarchy._insert_llc``, whose LRU pop is the
        victim), one private record per line resident in L2
        (:class:`repro.cache.trajectory.PrivateCopies`, which also
        answers the hierarchy's back-invalidations and syncs) and the NVM
        channel (a demand fill is the controller's arithmetic, inline).
        The scheme's own ``on_store``, ``write_back`` and ``fill_token``
        run at the scalar call sites, so undo flushes, forced commits and
        every crash-plan site fire at the reference loop's exact state.
        Epoch and crash boundaries cut the chunks into segments exactly
        as in :meth:`_run_single_core`.

        Bit-identical to the reference loop (:meth:`_run_reference`),
        asserted by tests/sim/test_engine_identity.py.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        controller = self.controller
        core = self.cores[0]
        llc = hierarchy.llc
        copies = PrivateCopies(hierarchy)
        copies.install()
        priv = copies.lines
        pdirty = copies.dirty
        llc_tags = llc._tags
        llc_sets = llc._sets
        llc_shift = llc._line_shift
        llc_mask = llc._set_mask
        l1_lat = hierarchy._l1[0].hit_latency
        l2_lat = hierarchy._l2[0].hit_latency
        llc_lat = llc.hit_latency
        smf = hierarchy.store_miss_factor
        evict = copies.evict
        device = controller.device
        channel = device._only_channel
        read_occ = device._line_read_occupancy
        icap = device._interference_cap
        img_lines = controller.image._lines
        insert_llc = hierarchy._insert_llc
        stats_add = hierarchy.stats.add
        sink = hierarchy.sink
        fill_token = (
            sink.fill_token
            if type(sink).fill_token is not CrashConsistencyScheme.fill_token
            else None
        )
        on_store = (
            sink.on_store
            if type(sink).on_store is not CrashConsistencyScheme.on_store
            else None
        )
        track = system.track_reference
        arch_image = system.arch_image
        epoch_span = self.config.epoch_instructions
        next_epoch = epoch_span
        crash = crash_at_instructions
        total = system.total_instructions
        cycle = core.cycle
        mstall = core.mem_stall_cycles
        ntok = system._next_token
        d_l1_hits = d_loads = d_stores = d_l1_miss = d_l2_hits = d_l2_miss = 0
        d_llc_hits = d_llc_miss = d_l1_ev = d_l2_ev = d_fills = 0
        # The reference in flight (chunk index) while an event runs; a
        # CrashSignal escaping it leaves its gap on the core's clock.
        inflight = None
        try:
            for chunk_index, chunk in enumerate(self.traces[0].chunks()):
                codes, victims = trajectory.chunk_codes(chunk_index, chunk)
                frozen = chunk.frozen
                np_cum = frozen.cum
                cum0 = np.concatenate(([0], np_cum))
                events = np.flatnonzero(codes | frozen.writes)
                victims = victims.tolist()
                vi = 0
                n = len(frozen)
                base = total
                seg_start = 0
                while seg_start < n:
                    limit = next_epoch - base
                    if crash is not None and crash - base < limit:
                        limit = crash - base
                    seg_end = seg_start + 1 + int(
                        np_cum[seg_start:].searchsorted(limit)
                    )
                    if seg_end > n:
                        seg_end = n
                    lo, hi = events.searchsorted((seg_start, seg_end))
                    ev = events[lo:hi]
                    # Per event: the clock advance from the previous event
                    # (or the segment start) to this reference's access —
                    # the load hits between at one L1 latency each, plus
                    # every gap including its own — and those hits' count.
                    prev = np.empty_like(ev)
                    if len(ev):
                        prev[0] = seg_start - 1
                        prev[1:] = ev[:-1]
                    k = ev - prev - 1
                    adv = cum0[ev + 1] - cum0[prev + 1] - 1 + k * (l1_lat - 1)
                    for p, step, hits, code, addr, w in zip(
                        ev.tolist(),
                        adv.tolist(),
                        k.tolist(),
                        codes[ev].tolist(),
                        frozen.addrs[ev].tolist(),
                        frozen.writes[ev].tolist(),
                    ):
                        inflight = p
                        cycle += step
                        if hits:
                            d_l1_hits += hits
                            d_loads += hits
                            mstall += hits * l1_lat
                        if w:
                            token = ntok
                            ntok += 1
                        # The trajectory byte (repro.cache.trajectory):
                        # bits 0-1 the level, 4 an L1 and 8 an L2 eviction.
                        level = code & 3
                        if not level:
                            d_l1_hits += 1
                            wait = l1_lat
                        else:
                            d_l1_miss += 1
                            fstall = 0
                            if level == 1:
                                d_l2_hits += 1
                                lat = l2_lat
                            else:
                                d_l2_miss += 1
                                if level == 2:
                                    d_llc_hits += 1
                                    llc_line = llc_tags[addr]
                                    row = llc_sets[(addr >> llc_shift) & llc_mask]
                                    if row[0] is not llc_line:
                                        row.remove(llc_line)
                                        row.insert(0, llc_line)
                                    lat = llc_lat + l2_lat
                                else:
                                    d_llc_miss += 1
                                    override = (
                                        fill_token(addr) if fill_token is not None
                                        else None
                                    )
                                    # MemoryController.demand_fill on the
                                    # one NVM channel, inline.
                                    bua = channel.backlog_updated_at
                                    wbk = channel.write_backlog
                                    if cycle > bua:
                                        wbk -= cycle - bua
                                        if wbk < 0:
                                            wbk = 0
                                        channel.write_backlog = wbk
                                        channel.backlog_updated_at = cycle
                                    start = channel.read_busy_until
                                    if start < cycle:
                                        start = cycle
                                    start += wbk if wbk < icap else icap
                                    channel.read_busy_until = start + read_occ
                                    mem_lat = start + read_occ - cycle
                                    d_fills += 1
                                    if override is not None:
                                        token_f = override
                                        stats_add("llc.fills_from_log")
                                    else:
                                        token_f = img_lines.get(addr, 0)
                                    # The LLC's own insert: its LRU pop is
                                    # the victim, and the back-invalidation
                                    # folds the victim's private record in.
                                    llc_line = CacheLine(addr, token=token_f)
                                    fstall = insert_llc(llc_line, cycle)
                                    lat = llc_lat + mem_lat + l2_lat
                                llc_line.owner = 0
                                # The L2 fill: a fresh record of the LLC data.
                                priv[addr] = llc_line.copy_fill(addr)
                                if code & 8:
                                    d_l2_ev += 1
                                    evict(victims[vi])
                                    vi += 1
                            if code & 4:
                                d_l1_ev += 1
                            if w:
                                wait = int((lat + l1_lat) * smf) + fstall
                            else:
                                wait = lat + l1_lat + fstall
                        if w:
                            line = priv[addr]
                            if on_store is not None:
                                wait += on_store(0, line, cycle)
                            line.token = token
                            if not line._dirty:
                                line._dirty = True
                                pdirty[addr] = line
                            d_stores += 1
                            if track:
                                arch_image[addr] = token
                        else:
                            d_loads += 1
                        cycle += wait
                        mstall += wait
                    inflight = None
                    # The load hits after the segment's last event.
                    last = int(ev[-1]) if len(ev) else seg_start - 1
                    hits = seg_end - 1 - last
                    if hits:
                        cycle += int(cum0[seg_end] - cum0[last + 1])
                        cycle += hits * (l1_lat - 1)
                        d_l1_hits += hits
                        d_loads += hits
                        mstall += hits * l1_lat
                    seg_start = seg_end
                    total = base + int(np_cum[seg_end - 1])
                    if total >= next_epoch or (crash is not None and total >= crash):
                        system.total_instructions = total
                        core.instructions = total
                        core.cycle = cycle
                        core.mem_stall_cycles = mstall
                        system._next_token = ntok
                        if total >= next_epoch:
                            stall = scheme.on_epoch_boundary(cycle)
                            system.broadcast_stall(stall)
                            next_epoch += epoch_span
                            cycle = core.cycle
                            mstall = core.mem_stall_cycles
                        if crash is not None and total >= crash:
                            self.crashed = True
                            return
                system.total_instructions = total
                core.instructions = total
        except CrashSignal:
            if inflight is not None:
                # Mid-chain: as in the reference loop, the in-flight
                # reference's gap is on the core's clock and instruction
                # count, never on the system total.
                total = base + int(cum0[inflight])
                system.total_instructions = total
                core.instructions = total + int(frozen.gaps[inflight])
                core.cycle = cycle
                core.mem_stall_cycles = mstall
                system._next_token = ntok
            raise
        finally:
            for slot, delta in (
                (hierarchy._l1_hits, d_l1_hits),
                (hierarchy._loads, d_loads),
                (hierarchy._stores, d_stores),
                (hierarchy._l1_misses, d_l1_miss),
                (hierarchy._l2_hits, d_l2_hits),
                (hierarchy._l2_misses, d_l2_miss),
                (hierarchy._llc_hits, d_llc_hits),
                (hierarchy._llc_misses, d_llc_miss),
                (hierarchy._l1[0]._evictions, d_l1_ev),
                (hierarchy._l2[0]._evictions, d_l2_ev),
                (controller._demand_fills, d_fills),
                (device._iops_slots[AccessCategory.DEMAND_READ], d_fills),
                (device._bytes_read, 64 * d_fills),
            ):
                slot.value += delta
        core.cycle = cycle
        core.mem_stall_cycles = mstall
        system._next_token = ntok
        core.finished = True

    def _run_reference(self, crash_at_instructions):
        """The reference interpreter, for one core or many.

        Interleaves cores by always advancing the earliest clock, one
        ``hierarchy.access`` per reference: the compute gap retires before
        the access, and the epoch and crash checks read the system
        instruction total after it. ``REPRO_VECTOR=0`` runs every config
        here, and so does every config
        :func:`repro.cache.miss_engine.decline_reason` rejects; the fast
        engine must match it bit for bit.
        """
        system = self.system
        hierarchy = self.hierarchy
        scheme = self.scheme
        cores = self.cores
        epoch_span = self.config.epoch_instructions * self.config.n_cores
        next_epoch = epoch_span
        cursors = [_TraceCursor(trace) for trace in self.traces]
        heap = [(0, core_id) for core_id in range(len(cores))]
        heapq.heapify(heap)

        while heap:
            _cycle, core_id = heapq.heappop(heap)
            cursor = cursors[core_id]
            pos = cursor.pos
            if pos >= cursor.n:
                if not cursor.advance():
                    cores[core_id].finished = True
                    continue
                pos = 0
            gap = cursor.gaps[pos]
            addr = cursor.addrs[pos]
            is_write = cursor.writes[pos]
            cursor.pos = pos + 1
            core = cores[core_id]
            core.advance_compute(gap)
            if is_write:
                token = system.new_token()
                wait = hierarchy.access(core_id, addr, True, token, core.cycle)
                system.note_store(addr, token)
            else:
                wait = hierarchy.access(core_id, addr, False, 0, core.cycle)
            core.advance_memory(wait)
            system.total_instructions += gap + 1
            if system.total_instructions >= next_epoch:
                stall = scheme.on_epoch_boundary(core.cycle)
                system.broadcast_stall(stall)
                next_epoch += epoch_span
            if (
                crash_at_instructions is not None
                and system.total_instructions >= crash_at_instructions
            ):
                self.crashed = True
                break
            heapq.heappush(heap, (core.cycle, core_id))

    def _run_multi_core_drain(self, crash_at_instructions, engine):
        """Run the multi-core drain loop, handling what it yields.

        The reference loop above pops the earliest ``(cycle, core)``
        key, runs that core for ONE reference, and pushes it back. Heap
        keys are written only at push time, so while core C runs every
        other key is frozen, and C is re-popped for as long as its key
        sorts below the smallest other one: it runs unobserved for every
        reference that starts at or before that key — the turn's
        *horizon* — and the first reference past it still retires.

        The drain generator (:meth:`MissChainEngine.make_drain`'s
        ``turn_gen``) runs exactly those turns through the fused miss
        chain and switches cores inline. It comes back here only when
        the running core retires the reference that crosses the next
        epoch or crash boundary, or the last reference of its chunk, so
        everything the reference loop does between references — epoch
        commits and their stop-the-world stall, crash stops, chunk
        loading — lives in this loop, in the reference order.

        Bit-identical to :meth:`_run_reference` — same tokens, cycles,
        counters, NVM image, undo log, recovery images — asserted by
        tests/sim/test_engine_identity.py and the fig10/fig12 CI
        byte-diff gates.
        """
        system = self.system
        scheme = self.scheme
        cores = self.cores
        n_cores = len(cores)
        epoch_span = self.config.epoch_instructions * n_cores
        next_epoch = epoch_span
        crash = crash_at_instructions
        chunk_iters = [trace.chunks() for trace in self.traces]
        chunks = [None] * n_cores
        # Instructions each core retired before its current chunk.
        bases = [0] * n_cores
        turns = CoreTurns(n_cores)

        def load(cid):
            """Bind the core's next chunk; False once its trace is done."""
            chunk = next(chunk_iters[cid], None)
            while chunk is not None and not len(chunk):
                chunk = next(chunk_iters[cid], None)
            if chunk is None:
                turns.bindings[cid] = None
                cores[cid].finished = True
                return False
            if chunks[cid] is not None:
                bases[cid] += chunks[cid].cum_instructions[-1]
                turns.done += turns.pos[cid]
            chunks[cid] = chunk
            turns.bindings[cid] = engine.bind(cid, chunk)
            turns.pos[cid] = 0
            return True

        def boundary():
            """The next epoch or crash point, in system instructions."""
            return next_epoch if crash is None or next_epoch < crash else crash

        # Every clock starts at 0, so the keys are the core ids, in order.
        turns.heap = [cid for cid in range(n_cores) if load(cid)]
        turn = engine.make_drain().turn_gen(0, 0, 0, None, turns, boundary())
        command = None  # a just-started generator takes only None
        inflight_gap = 0
        try:
            while True:
                try:
                    turn.send(command)
                except StopIteration:
                    break
                except CrashSignal:
                    # The reference loop retires a reference's gap
                    # (advance_compute) before its access chain, so a
                    # crash escaping mid-chain leaves the gap on the
                    # core's clock and instruction count — never on the
                    # system total, which moves only after the access.
                    cid = turns.cid
                    inflight_gap = chunks[cid].gaps[turns.pos[cid]]
                    cores[cid].cycle += inflight_gap
                    raise
                cid = turns.cid
                total = system.total_instructions
                if total >= next_epoch:
                    stall = scheme.on_epoch_boundary(cores[cid].cycle)
                    system.broadcast_stall(stall)
                    next_epoch += epoch_span
                if crash is not None and total >= crash:
                    self.crashed = True
                    return
                command = boundary()
                if turns.pos[cid] >= len(chunks[cid]):
                    load(cid)
        finally:
            turn.close()
            for cid, core in enumerate(cores):
                chunk = chunks[cid]
                cum = chunk.cum_instructions if chunk is not None else ()
                pos = turns.pos[cid]
                core.instructions = bases[cid] + (cum[pos - 1] if pos else 0)
            if inflight_gap:
                cores[turns.cid].instructions += inflight_gap

    def result(self):
        """Package the current counters into a SimulationResult."""
        return SimulationResult(
            self.scheme_name,
            self.benchmarks,
            self.config,
            cycles=self.system.max_cycle(),
            instructions=self.system.total_instructions,
            stats=self.stats,
            per_core_cycles=[core.cycle for core in self.cores],
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    # crash / recovery harness
    # ------------------------------------------------------------------

    def crash_and_recover(self):
        """Power-fail now, recover, and return (image, commit_id, reference).

        ``reference`` is the architectural snapshot the recovered image
        must equal ({} for the initial state; None when the config did not
        enable reference tracking or the snapshot fell out of the window).
        """
        self.system.crash()
        image, commit_id = self.scheme.recover()
        if commit_id is None:
            reference = None
        elif commit_id < 0:
            reference = {}
        else:
            reference = self.system.commit_snapshot(commit_id)
        return image, commit_id, reference
