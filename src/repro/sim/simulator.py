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
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import memory_line
from repro.cache.miss_engine import CoreTurns, MissChainEngine
from repro.cache.trajectory import PrivateCopies, Trajectory, geometry
from repro.common.errors import ConfigurationError
from repro.common.stats import StatCounters
from repro.core.picl import PiclScheme
from repro.cpu.core import CoreState
from repro.fault.plan import CrashSignal
from repro.cpu.system import System
from repro.mem.controller import MemoryController
from repro.sim.results import SimulationResult
from repro.trace.profiles import get_profile
from repro.trace.synthetic import make_trace

#: Address-space stride between cores (programs never share lines).
_CORE_ADDR_STRIDE = 1 << 40

#: Trajectory-byte flag the replay adds to an event whose preceding L1
#: hits hold stores it writes in bulk, and the code of a segment's end.
_STORE_RUN = 16
_SENTINEL = -64

#: A run of L1 hits between two misses holding at least this many stores
#: writes its scheme-silent stores in bulk (see Simulation._run_replay),
#: deduplicated by :func:`store_lines`; the replay visits the stores of
#: shorter runs one by one, like misses.
_BULK_STORES = 16

SCHEME_NAMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


def store_lines(addrs):
    """The lines a run of stores writes: ``(lines, first, last)``, numpy
    arrays holding each line of the non-empty address array ``addrs``
    once, in first-store order, with the indices of its first and last
    store in ``addrs``.

    An insertion-ordered dict gives the same: ``dict(zip(addrs,
    range(len(addrs))))`` lists the lines in first-store order, each with
    its last store's index. A stable sort keeps each line's stores in
    order, so the head of each equal-address group is its first store and
    the tail its last. Addresses spanning less than 64 KiB sort as 16-bit
    offsets, which numpy sorts stably by radix, in linear time.
    """
    low = addrs.min()
    if addrs.max() - low < 1 << 16:
        order = (addrs - low).astype(np.uint16).argsort(kind="stable")
    else:
        order = addrs.argsort(kind="stable")
    ranked = addrs[order]
    head = np.empty(len(ranked), dtype=bool)
    tail = np.empty_like(head)
    head[0] = tail[-1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    tail[:-1] = head[1:]
    first = order[head]
    by_first = first.argsort()
    return ranked[head][by_first], first[by_first], order[tail][by_first]


def _store_mode(sfilter):
    """The replay's store dispatch for a ``vector_store_filter()`` value:
    ``(0, None)`` every store is scheme-silent, ``(1, None)`` every store
    calls ``sink.on_store``, ``(2, eid)`` a store to a line tagged ``eid``
    is silent and any other store calls ``sink.on_store``."""
    # ``is True``/``is False``: an EID of 0 or 1 must not be mistaken for
    # the booleans.
    if sfilter is True:
        return 0, None
    if sfilter is False:
        return 1, None
    return 2, sfilter


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


class BuiltSystem:
    """A system built from a config, with a scheme attached.

    The memory controller, the cache hierarchy, one ``CoreState`` per
    core, the :class:`repro.cpu.system.System` over them and the scheme,
    all counting into one ``StatCounters``. Both drivers are built this
    way: :class:`Simulation` runs traces through it, and
    :class:`repro.sim.interactive.InteractiveSystem` drives it one
    access at a time. ``track_reference`` keeps the architectural image
    and commit snapshots that :meth:`crash_and_recover` checks against.
    """

    def __init__(self, config, scheme_name, track_reference):
        self.config = config
        self.scheme_name = scheme_name
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
            track_reference=track_reference,
            reference_depth=config.reference_depth,
        )
        self.scheme = build_scheme(scheme_name, self.system, config)

    def crash_and_recover(self):
        """Power-fail now, recover, and return (image, commit_id, reference).

        ``reference`` is the architectural snapshot the recovered image
        must equal ({} when the recovery target is the initial state;
        None when the scheme offers no consistency guarantee, reference
        tracking is off, or the snapshot fell out of the window).
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


class Simulation(BuiltSystem):
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
        super().__init__(config, scheme_name, config.track_reference)
        self.shared_memory = shared_memory
        self.benchmarks = list(benchmarks)
        self.n_instructions = n_instructions
        self.seed = seed
        self.traces = [self._make_trace(core_id) for core_id in range(config.n_cores)]
        self.crashed = False
        #: The semantic crash site that fired (None for clean runs and
        #: instruction-count crashes).
        self.crash_site = None
        #: Which interpreter ran, set by run(): ``"trajectory"`` for one
        #: core and ``"drain"`` for several on the fast engine, or
        #: ``"reference: REPRO_VECTOR=0"``.
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

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self, crash_at_instructions=None, crash_plan=None):
        """Drive the traces to completion (or to the crash point).

        ``crash_plan`` injects a semantic-event crash (see
        :mod:`repro.fault.plan`): instruction-count plans fold into
        ``crash_at_instructions``; site plans install hooks on the
        hierarchy/scheme and power-fail by raising ``CrashSignal`` from
        inside the crash window. A plan whose site is never reached lets
        the run complete (check ``crash_plan.fired``).

        A single-core run on the fast engine is split in two. On one
        core the cache outcome does not depend on the scheme: LRU
        replacement follows the reference order alone, and no scheme
        moves a line in or out of a cache — flushes and ACS scans clean
        lines in place. So a scheme-free *tag pass*
        (:class:`repro.cache.trajectory.Trajectory`) records which level
        served each reference and which line each L2 fill evicted, and
        the run *replays* it (:meth:`_run_replay`, engine
        ``"trajectory"``): misses, stores, victims and epoch boundaries
        under this scheme, with the runs of L1 hits between misses
        retired in bulk. The tag pass is lazy: the replay asks for each
        chunk's codes just before it runs the chunk, and the pass tags
        that very chunk object, classifying runs of L1 hits in numpy
        (an all-hit prefix up to the first miss) and stepping through
        misses one by one — so a crashed run tags only the chunks it
        reached. The trajectory of a memoized trace is owned by the trace
        memo (``trace.trajectories``, keyed by cache geometry) and lives
        as long as its entry: every run of the trace on this geometry,
        whatever its scheme, replays the chunks an earlier run tagged and
        tags the rest. A trace the memo does not hold keeps nothing.

        Several cores run the multi-core drain loop
        (:meth:`_run_multi_core_drain`, engine ``"drain"``). Both fast
        engines run every config: each calls the hierarchy's own miss
        chain and the scheme's own hooks. Only ``REPRO_VECTOR=0`` runs
        the reference loop.
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
            # the reference loop; everything else runs the fast engine.
            if not self.hierarchy.vector:
                self.engine = "reference: REPRO_VECTOR=0"
                self._run_reference(crash_at_instructions)
            elif len(self.cores) == 1:
                shape = geometry(self.hierarchy)
                kept = self.traces[0].trajectories
                trajectory = None if kept is None else kept.get(shape)
                if trajectory is None:
                    trajectory = Trajectory(shape, keep=kept is not None)
                    if kept is not None:
                        kept[shape] = trajectory
                self.engine = "trajectory"
                self._run_replay(crash_at_instructions, trajectory)
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

    def _run_replay(self, crash_at_instructions, trajectory):
        """Replay a scheme-free cache trajectory under this scheme.

        The trajectory (:class:`repro.cache.trajectory.Trajectory`) says
        which level served every reference and which line each L2 fill
        evicted, so nothing here probes a private cache or keeps its LRU
        order. The loop visits each L1 miss and retires the run of L1
        hits before it in O(1) off the chunk's cumulative instruction
        and store counts. A miss runs the hierarchy's chain on the state
        a scheme can observe: the LLC (tags, MRU lists, dirty lines, EID
        index; a fill goes through ``CacheHierarchy._insert_llc``, whose
        LRU pop is the victim), one private record per line resident in
        L2 (:class:`repro.cache.trajectory.PrivateCopies`, which also
        answers the hierarchy's back-invalidations and syncs) and the
        memory (a fill is ``MemoryController.demand_fill``).

        Stores follow the scheme's ``vector_store_filter()``, read once
        per segment. ``False``: every store is visited like a miss and
        runs ``on_store`` at its own cycle. ``True``, or an EID that the
        stored line already carries: the store is scheme-silent and only
        writes its token. Under an EID, a
        line's first store while it carries another EID is cross-epoch:
        it runs ``on_store`` at its own cycle, which retags the line. A
        run of hits holding at least ``_BULK_STORES`` stores writes its
        silent stores in bulk: no line moves between two misses, so the
        run's cross-epoch stores are known up front, and after them each
        line takes the token of its last store and turns dirty at its
        first, in first-store order — what one by one would leave. One
        numpy dedupe of the run's store addresses (:func:`store_lines`)
        gives each stored line once, in first-store order, with its first
        and last store; it drives the cross-epoch walk and the token
        writes, and a crash inside a cross-epoch store writes the dedupe
        of the stores before it. Shorter runs visit each store like a
        miss.

        The scheme's own ``on_store``, ``write_back`` and ``fill_token``
        run at the scalar call sites, so undo flushes, forced commits and
        every crash-plan site fire at the reference loop's exact state.
        Epoch and crash boundaries cut each chunk into segments up front
        (its cumulative instruction counts searched against the next
        boundary), so nothing inside a segment compares against one. A
        segment's rows (its events, then its end) come from numpy only
        for the events it holds; its end row is four counts, so a segment
        holding no event (most of a hit-dominated trace) costs its two
        boundary searches and no per-store Python.

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
        lat1 = l1_lat - 1
        l2_lat = hierarchy._l2[0].hit_latency
        llc_lat = llc.hit_latency
        smf = hierarchy.store_miss_factor
        evict = copies.evict
        demand_fill = controller.demand_fill
        insert_llc = hierarchy._insert_llc
        stats_add = hierarchy.stats.add
        sink = hierarchy.sink
        fill_token = hierarchy._fill_token
        on_store = sink.on_store
        store_filter = sink.vector_store_filter
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
        d_llc_hits = d_llc_miss = d_l1_ev = d_l2_ev = 0

        def write_tokens(lines, tokens):
            """Write each line's token to its private record, turning the
            records dirty in the order given."""
            for addr, token in zip(lines, tokens):
                line = priv[addr]
                line.token = token
                if not line._dirty:
                    line._dirty = True
                    pdirty[addr] = line
                if track:
                    arch_image[addr] = token

        # While a cross-epoch store's on_store runs inside a run of hits:
        # the ``(first, end)`` store indices of the run's stores before
        # it, whose tokens the run writes only at its end (a crash in the
        # call writes them).
        unwritten = None
        # The reference in flight (chunk index) while a miss chain or a
        # store's on_store runs; a CrashSignal escaping it leaves its gap
        # on the core's clock.
        inflight = None
        try:
            for chunk_index, chunk in enumerate(self.traces[0].chunks()):
                codes, victims = trajectory.chunk_codes(chunk_index, chunk)
                frozen = chunk.frozen
                np_cum = frozen.cum
                np_wcum = frozen.write_cum
                np_writes = frozen.writes
                # The events: every L1 miss, and the stores the loop visits
                # one by one — under a False filter all of them, else those
                # of the runs of hits between two misses that hold fewer
                # than _BULK_STORES stores. (Made when first needed.)
                events = [None, None]
                # The chunk's store positions; its j-th store draws token
                # tok0 + j. (Made when a run of hits first writes stores
                # in bulk.)
                stores = None
                tok0 = ntok
                victims = victims.tolist()
                vi = 0
                n = len(frozen)
                base = total
                # The instructions and stores of the chunk before the
                # segment.
                c_start = w_start = 0
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
                    smode, eid = _store_mode(store_filter())
                    ev = events[smode == 1]
                    if ev is None:
                        if smode == 1:
                            ev = np.flatnonzero(codes | np_writes)
                        else:
                            # The stores of each run of hits: those before
                            # its closing miss (or the chunk's end) less
                            # those up to its opening miss.
                            misses = np.flatnonzero(codes)
                            after = np_wcum[misses]
                            held = np.append(
                                after - np_writes[misses], np_wcum[-1]
                            ) - np.append(0, after)
                            few = held < _BULK_STORES
                            ev = misses
                            if held[few].any():
                                hit_stores = np.flatnonzero(
                                    np_writes & (codes == 0)
                                )
                                few = few[misses.searchsorted(hit_stores)]
                                ev = np.sort(
                                    np.concatenate((misses, hit_stores[few]))
                                )
                        events[smode == 1] = ev
                    # One row per event, then the segment end as a sentinel
                    # (a negative code): its position p, the clock advance
                    # from the previous row to its access (the L1 hits
                    # between at one hit latency each, every gap including
                    # its own), those hits, the chunk's stores before it,
                    # its trajectory byte (plus _STORE_RUN when the hits
                    # before it hold stores), line and store bit. Only a
                    # segment holding events builds rows in numpy; the
                    # sentinel takes the instruction and store counts after
                    # the last event (or at the segment's start) and at
                    # its end.
                    e_lo, e_hi = ev.searchsorted((seg_start, seg_end)).tolist()
                    c_end = int(np_cum[seg_end - 1])
                    w_end = int(np_wcum[seg_end - 1])
                    if e_lo == e_hi:
                        last_p, c_prev, w_prev = seg_start - 1, c_start, w_start
                    else:
                        last_p = int(ev[e_hi - 1])
                        c_prev = int(np_cum[last_p])
                        w_prev = int(np_wcum[last_p])
                    k_end = seg_end - 1 - last_p
                    sentinel = (
                        seg_end,
                        c_end - c_prev + k_end * lat1,
                        k_end,
                        w_end,
                        _SENTINEL | _STORE_RUN if w_end != w_prev else _SENTINEL,
                        0,
                        False,
                    )
                    if e_lo == e_hi:
                        rows = (sentinel,)
                    else:
                        ev = ev[e_lo:e_hi]
                        ev_cum = np_cum[ev]
                        ev_wcum = np_wcum[ev]
                        ev_w = np_writes[ev]
                        hits = np.diff(ev, prepend=seg_start - 1) - 1
                        ev_codes = codes[ev] | np.where(
                            np.diff(ev_wcum, prepend=w_start) != ev_w, _STORE_RUN, 0
                        )
                        columns = (
                            ev.tolist(),
                            (
                                np.diff(ev_cum, prepend=c_start) - 1 + hits * lat1
                            ).tolist(),
                            hits.tolist(),
                            (ev_wcum - ev_w).tolist(),
                            ev_codes.tolist(),
                            frozen.addrs[ev].tolist(),
                            ev_w.tolist(),
                        )
                        for column, value in zip(columns, sentinel):
                            column.append(value)
                        rows = zip(*columns)
                    for p, step, k_hits, wp, code, addr, w in rows:
                        if code & _STORE_RUN:
                            # -- a run of hits with at least _BULK_STORES
                            # stores, under a True or an EID filter. No
                            # line moves until p, so only on_store retags a
                            # line, and only the stored one: exactly the
                            # first store of each line tagged otherwise
                            # than the filter EID runs on_store. The silent
                            # ones write their tokens at the end, each line
                            # its last, in first-store order (store_lines).
                            if stores is None:
                                stores = np.flatnonzero(np_writes)
                            done = p - k_hits
                            lo = w_done = int(np_wcum[done - 1]) if done else 0
                            lines, first, last = store_lines(
                                frozen.addrs[stores[lo:wp]]
                            )
                            lines = lines.tolist()
                            cross = ()
                            if smode == 2:
                                cross = [
                                    (a, j) for a, j in zip(lines, first.tolist())
                                    if priv[a].eid != eid
                                ]
                            if cross:
                                # The instructions before the first
                                # reference after the previous event (then
                                # cross-epoch store).
                                c_done = int(np_cum[done - 1]) if done else 0
                                for a, j in cross:
                                    # A cross-epoch store, at its own cycle.
                                    j += lo
                                    n_silent = j - w_done
                                    d_stores += n_silent
                                    q = int(stores[j])
                                    k = q - done
                                    c_store = int(np_cum[q])
                                    cycle += c_store - 1 - c_done + k * lat1
                                    mstall += k * l1_lat
                                    d_l1_hits += k + 1
                                    d_loads += k - n_silent
                                    inflight = q
                                    ntok = tok0 + j + 1
                                    unwritten = lo, j
                                    wait = l1_lat + on_store(0, priv[a], cycle)
                                    d_stores += 1
                                    cycle += wait
                                    mstall += wait
                                    done = q + 1
                                    c_done = c_store
                                    w_done = j + 1
                                k_hits = p - done
                                if code < 0:
                                    x = c_end
                                else:
                                    x = int(np_cum[p]) - 1
                                step = x - c_done + k_hits * lat1
                            n_silent = wp - w_done
                            d_stores += n_silent
                            # The retirement below counts every hit a load.
                            d_loads -= n_silent
                            write_tokens(lines, (last + (tok0 + lo)).tolist())
                            unwritten = None
                            ntok = tok0 + wp
                        # -- retire the L1 hits before p, and p's gap
                        cycle += step
                        if k_hits:
                            d_l1_hits += k_hits
                            d_loads += k_hits
                            mstall += k_hits * l1_lat
                        if code < 0:
                            break
                        # -- the event at p: a store hit, or an L1 miss
                        inflight = p
                        if w:
                            token = tok0 + wp
                            ntok = token + 1
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
                                    mem_lat, token_f = demand_fill(addr, cycle)
                                    if override is not None:
                                        token_f = override
                                        stats_add("llc.fills_from_log")
                                    # The LLC's own insert: its LRU pop is
                                    # the victim, and the back-invalidation
                                    # folds the victim's private record in.
                                    llc_line = memory_line(addr, token_f)
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
                            if smode == 1 or (smode == 2 and line.eid != eid):
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
                    seg_start = seg_end
                    c_start, w_start = c_end, w_end
                    ntok = tok0 + w_end
                    total = base + c_end
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
            trajectory.finish()
        except CrashSignal:
            if unwritten is not None:
                # The stores before the crashed one retired.
                lo, j = unwritten
                if j > lo:
                    lines, _, last = store_lines(frozen.addrs[stores[lo:j]])
                    write_tokens(lines.tolist(), (last + (tok0 + lo)).tolist())
            if inflight is not None:
                # Mid-chain: as in the reference loop, the in-flight
                # reference's gap is on the core's clock and instruction
                # count, never on the system total.
                total = base + (int(np_cum[inflight - 1]) if inflight else 0)
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
        here; the fast engine must match it bit for bit.
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
        ``turn_gen``) runs exactly those turns and switches cores
        inline. It steps every reference as ``access`` does: an L1 hit
        inline, an L1 miss through the hierarchy's own chain, and every
        store through the scheme's ``on_store`` at the access's cycle.
        It comes back here only when the running core retires the
        reference that crosses the next epoch or crash boundary, or the
        last reference of its chunk, so everything the reference loop
        does between references — epoch commits and their
        stop-the-world stall, crash stops, chunk loading — lives in
        this loop, in the reference order.

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
        turn = engine.make_drain().turn_gen(0, turns, boundary())
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
