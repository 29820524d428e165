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
from bisect import bisect_left

import numpy as np

from repro.baselines import Frm, IdealNvm, Journaling, ShadowPaging, ThyNvm
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import LineState
from repro.cache.miss_engine import build_engine as build_miss_engine
from repro.cache.miss_engine import build_engines as build_miss_engines
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

#: Columnar interpreter: shortest all-fast stretch (in references *and* in
#: coalescing groups) worth bulk application; anything shorter replays
#: through the scalar body, whose run-coalescing covers it in O(groups).
_BULK_MIN = 8

#: Bulk stretches spanning at least this many coalescing groups use the
#: numpy reductions in bulk_span; sparser ones use its plain-Python
#: group-at-a-time path (less per-call setup).
_NUMPY_BULK_MIN = 64

#: The multi-core walk bulk-applies shorter stretches than the
#: single-core one: heap turns chop consumption into a handful of
#: references and the shared LLC's back-invalidations scatter misses, so
#: the typical all-fast stretch of an 8-core mix is 3-6 references —
#: still cheaper as one cum-arithmetic application than per-reference
#: replay, because the turn machinery (not the classification) dominates
#: the alternative.
_BULK_MIN_MC = 4

#: Classification window bounds: the lookahead doubles from the initial
#: size while windows stay fully fast and productive, and halves when
#: bulk application comes up short.
_WINDOW_INIT = 256
_WINDOW_MIN = 128
_WINDOW_MAX = 4096

#: After this many consecutive unproductive windows the interpreter
#: disengages into a scalar burst before probing again, so miss-heavy
#: phases pay ~zero classification overhead. Bursts start at
#: _DISENGAGE_REFS references and double up to _DISENGAGE_MAX while
#: re-probes keep failing (geometric backoff), so a workload the columnar
#: path never helps converges to pure scalar speed while still noticing a
#: phase change within ~_DISENGAGE_MAX references.
_SHORT_LIMIT = 2
_DISENGAGE_REFS = 4096
_DISENGAGE_MAX = 65536

#: A mirror row's match bytes read as one word (see L1TagMirror), and
#: the multiplier that moves the index of its one set byte to the top.
_ROW_WORD = np.dtype("<u8")
_WAY_OF_BYTE = np.uint64(0x0001020304050607)

SCHEME_NAMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


class _TraceCursor:
    """Positional reader over a trace's chunks.

    Indexes the chunk's parallel gap/addr/write lists directly so the
    interleaved multi-core loop never materializes a per-reference tuple.
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


class _CoreVecState:
    """Per-core trace position, mirror bindings, and window tuning for the
    horizon-batched multi-core interpreter (_run_multi_core_vector).

    One instance per core: the chunk's parallel arrays and batch metadata,
    the core's private L1 + tag-mirror bindings, the per-chunk miss-chain
    drain, and the self-tuning window state (each core sees its own
    workload phase, so window sizes and disengage bursts tune per core).
    """

    __slots__ = (
        "chunks", "engine", "l1", "vec", "tags2d", "eids2d", "removed",
        "l1_tags", "l1_sets", "l1_dirty", "shift", "mask", "lat",
        "gaps", "addrs", "writes", "cum", "run_ends", "rcum", "wcum",
        "np_addrs", "np_writes", "n", "pos", "drain",
        "window", "shorts", "scalar_budget", "burst_len", "productive",
        "win_end", "win_wb", "win_bad", "win_nbad", "win_bptr",
        "win_fpos", "win_fast", "win_bulked", "win_dense",
        "win_serial", "win_sfilter",
        "gen", "gen_i", "gen_stop", "gen_live", "gen_serial", "gen_sfilter",
    )

    def __init__(self, trace, l1, engine):
        self.chunks = trace.chunks()
        self.engine = engine
        self.l1 = l1
        vec = l1._vec
        self.vec = vec
        self.tags2d = vec.tags2d
        self.eids2d = vec.eids2d
        self.removed = vec.removed
        self.l1_tags = l1._tags
        self.l1_sets = l1._sets
        self.l1_dirty = l1._dirty_lines
        self.shift = l1._line_shift
        self.mask = l1._set_mask
        self.lat = l1.hit_latency
        self.n = 0
        self.pos = 0
        self.drain = None
        self.window = _WINDOW_INIT
        self.shorts = 0
        self.scalar_budget = 0
        self.burst_len = _DISENGAGE_REFS
        self.productive = False
        # The live classified window (see run_span): turns are usually
        # far shorter than a window, so classification state persists
        # across turns and is consumed incrementally.
        self.win_end = 0
        self.win_wb = 0
        self.win_bad = None
        self.win_nbad = 0
        self.win_bptr = 0
        self.win_fpos = None
        self.win_fast = None
        self.win_bulked = 0
        self.win_dense = False
        self.win_serial = -1
        self.win_sfilter = None
        # The parked burst drain generator (see run_span and the driver
        # hot path): its whole local frame survives across turns; only
        # each turn's budget is sent in. The generator itself maintains
        # pos / gen_i / scalar_budget / gen_live at every park point and
        # owns its segment bound, so all shared state is written back at
        # every yield and an invalidated generator just gets close()d.
        self.gen = None
        self.gen_i = 0
        self.gen_stop = 0
        self.gen_live = False
        self.gen_serial = -1
        self.gen_sfilter = None
    def load_chunk(self):
        """Bind the next chunk's arrays; False when the trace is done."""
        chunk = next(self.chunks, None)
        if chunk is None:
            return False
        chunk.ensure_metadata()
        self.gaps = chunk.gaps
        self.addrs = chunk.addrs
        self.writes = chunk.writes
        self.cum = chunk.cum_instructions
        self.run_ends = chunk.run_ends
        self.rcum = chunk.run_cum
        self.wcum = chunk.write_cum
        self.np_addrs = chunk.frozen.addrs
        self.np_writes = chunk.frozen.writes
        self.n = len(chunk)
        self.pos = 0
        self.win_end = 0
        if self.gen is not None:
            self.gen.close()
            self.gen = None
        if self.engine is not None:
            self.drain = self.engine.make_drain(
                self.gaps,
                self.addrs,
                self.writes,
                self.cum,
                self.run_ends,
                self.wcum,
            )
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
        self.traces = []
        for core_id, name in enumerate(self.benchmarks):
            profile = config.scale_profile(get_profile(name))
            addr_base = 0 if shared_memory else core_id * _CORE_ADDR_STRIDE
            self.traces.append(
                make_trace(
                    profile,
                    n_instructions,
                    seed=seed + core_id * 101,
                    addr_base=addr_base,
                )
            )
        self.crashed = False
        #: The semantic crash site that fired (None for clean runs and
        #: instruction-count crashes).
        self.crash_site = None
        self._ran = False

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
            if len(self.cores) == 1:
                # REPRO_VECTOR (default on) attaches a numpy tag mirror to
                # the single core's L1 at construction; its presence
                # selects the columnar interpreter. REPRO_VECTOR=0 leaves
                # it detached and restores the scalar loop.
                if self.hierarchy._l1[0]._vec is not None:
                    self._run_single_core_vector(crash_at_instructions)
                else:
                    self._run_single_core(crash_at_instructions)
            else:
                # Same selector per core: REPRO_VECTOR (with the
                # multi-core-specific REPRO_VECTOR_MC sub-switch) attaches
                # a tag mirror to every private L1; their presence selects
                # the horizon-batched interpreter.
                if self.hierarchy._l1[0]._vec is not None:
                    self._run_multi_core_vector(crash_at_instructions)
                else:
                    self._run_multi_core(crash_at_instructions)
            if not self.crashed:
                stall = self.scheme.finalize(self.system.max_cycle())
                self.system.broadcast_stall(stall)
        except CrashSignal as signal:
            self.crashed = True
            self.crash_site = signal.site
        return self.result()

    def _run_single_core(self, crash_at_instructions):
        """The dominant case: one core, batched over boundary-free segments.

        Each chunk is segmented at the epoch/crash boundaries up front
        (via its cumulative instruction counts, ``bisect`` against the
        next boundary), so the inner loop runs check-free: no per-reference
        epoch or crash comparison. Within a segment, a run of consecutive
        references to one line (``chunk.run_ends``) is dispatched through
        :meth:`repro.cache.hierarchy.CacheHierarchy.access_repeat` — the
        coalescing fast path that charges ``count × hit_latency`` when the
        repeats provably cannot change cache or scheme state, and returns
        None (forcing exact one-by-one replay) when they could. Instruction
        counters are synced at segment boundaries only; nothing observes
        them in between. Results are bit-identical to the per-reference
        loop (asserted by tests/sim/test_batching.py).
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        access_repeat = hierarchy.access_repeat
        # The L1 read-hit path of ``access`` is inlined below (same shape,
        # same counters) — it is the single most common operation of a run,
        # and the call itself is measurable at this volume.
        l1 = hierarchy._l1[0]
        l1_tags = l1._tags
        l1_sets = l1._sets
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_latency = l1.hit_latency
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        core = self.cores[0]
        epoch_span = self.config.epoch_instructions
        next_epoch = epoch_span
        track = system.track_reference
        arch_image = system.arch_image
        total = system.total_instructions
        crash = crash_at_instructions

        for chunk in self.traces[0].chunks():
            chunk.ensure_metadata()
            gaps = chunk.gaps
            addrs = chunk.addrs
            writes = chunk.writes
            cum = chunk.cum_instructions
            run_ends = chunk.run_ends
            wcum = chunk.write_cum
            n = len(gaps)
            base = total
            index = 0
            while index < n:
                # The segment ends at (and includes) the first reference
                # whose retirement crosses the next epoch or crash point.
                limit = next_epoch - base
                if crash is not None and crash - base < limit:
                    limit = crash - base
                seg_end = bisect_left(cum, limit, index) + 1
                if seg_end > n:
                    seg_end = n
                while index < seg_end:
                    gap = gaps[index]
                    cycle = core.cycle + gap
                    addr = addrs[index]
                    if writes[index]:
                        token = system._next_token
                        system._next_token = token + 1
                        wait = access(0, addr, True, token, cycle)
                        if track:
                            arch_image[addr] = token
                    else:
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            l1_hits.value += 1
                            loads.value += 1
                            wait = l1_latency
                        else:
                            wait = access(0, addr, False, 0, cycle)
                    core.cycle = cycle + wait
                    core.mem_stall_cycles += wait
                    run_end = run_ends[index]
                    if run_end > seg_end:
                        run_end = seg_end
                    index += 1
                    if run_end > index:
                        # Tail of a same-line run: after the access above
                        # the line is L1-resident at MRU, so the repeats
                        # may coalesce. Tokens are only consumed (and the
                        # reference image only updated) once the fast path
                        # commits to the whole tail.
                        k = run_end - index
                        kw = wcum[run_end - 1] - wcum[index - 1]
                        if kw:
                            last_token = system._next_token + kw - 1
                            wait = access_repeat(
                                0, addr, k - kw, kw, last_token, core.cycle
                            )
                            if wait is None:
                                continue
                            system._next_token += kw
                            if track:
                                arch_image[addr] = last_token
                        else:
                            wait = access_repeat(0, addr, k, 0, 0, core.cycle)
                            if wait is None:
                                continue
                        core.cycle += (cum[run_end - 1] - cum[index - 1]) - k + wait
                        core.mem_stall_cycles += wait
                        index = run_end
                total = base + cum[index - 1]
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
        core.finished = True

    def _run_single_core_vector(self, crash_at_instructions):
        """Columnar interpreter: classify lookahead windows array-at-a-time.

        Builds on the segmented loop above but replaces its per-reference
        walk. Within each boundary-free segment the loop repeatedly:

        1. **Classifies a window.** Set indices and an L1 tag probe for the
           next ``window`` references in numpy against the L1's live tag
           mirror (:class:`repro.cache.vector_mirror.L1TagMirror`). A
           reference is *fast* when it is a classified L1 hit the scheme
           cannot observe: every load hit, plus store hits the scheme's
           ``vector_store_filter`` declares silent (all of them, none, or
           only lines tagged with a given EID — PiCL's same-epoch branch).
           Everything else is *residual*. The probe has no row reduction:
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
           Applying a fast stretch cannot change residency or EIDs, so it
           can never invalidate its own classification.
        3. **Replays residuals exactly** through the verbatim scalar body,
           so misses, evictions, undo logging, and crash-plan sites behave
           identically. A residual's evictions CAN invalidate the rest of
           the window (a classified hit whose line just left — the
           stale-positive direction; see vector_mirror's docstring), so the
           mirror logs removals and the loop demotes the victims'
           remaining fast positions to residual after every replay.
           Residual side effects can also flip references the *other* way
           (a cross-epoch store retags its line silent); those stay
           residual and replay exactly, which is merely conservative.

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
        into a pure scalar burst before probing again, so miss-heavy
        workloads pay near-zero classification overhead.

        Bit-identical to the scalar loop — same counters, tokens, cycles,
        recovery images — asserted by tests/sim/test_vectorized.py.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        access_repeat = hierarchy.access_repeat
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
        tags2d = vec.tags2d
        eids = vec.eids
        ways = vec.ways
        n_slots = len(eids)
        removed = vec.removed
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
        scalar_budget = 0
        burst_len = _DISENGAGE_REFS
        productive = False
        # Batched miss-chain engine (repro.cache.miss_engine): residual
        # spans drain through one fused loop instead of the per-miss call
        # chain. None when ineligible (REPRO_BATCH_MISS=0, multi-channel
        # NVM, DRAM cache, foreign sink) — every call site below then
        # falls back to scalar_span, byte-identically.
        engine = build_miss_engine(self)

        for chunk in self.traces[0].chunks():
            # The lists start unthawed: every exact replay below thaws
            # the range it reads first (see TraceChunk.thaw); everything
            # else reads the numpy columns.
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

            def scalar_span(
                i,
                stop,
                seg_end,
                # Default-arg binding: the body runs per reference, and
                # locals are materially faster than closure derefs there.
                gaps=gaps,
                addrs=addrs,
                writes=writes,
                cum=cum,
                run_ends=run_ends,
                wcum=wcum,
                core=core,
                system=system,
                access=access,
                access_repeat=access_repeat,
                track=track,
                arch_image=arch_image,
                l1_tags=l1_tags,
                l1_sets=l1_sets,
                l1_shift=l1_shift,
                l1_mask=l1_mask,
                l1_latency=l1_latency,
                l1_hits=l1_hits,
                loads=loads,
            ):
                """The verbatim scalar body over [i, stop); returns new i.

                Run-coalescing tails may legitimately advance past ``stop``
                (never past ``seg_end``) — the caller's window bookkeeping
                skips anything already consumed.
                """
                while i < stop:
                    gap = gaps[i]
                    cycle = core.cycle + gap
                    addr = addrs[i]
                    if writes[i]:
                        token = system._next_token
                        system._next_token = token + 1
                        wait = access(0, addr, True, token, cycle)
                        if track:
                            arch_image[addr] = token
                    else:
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            l1_hits.value += 1
                            loads.value += 1
                            wait = l1_latency
                        else:
                            wait = access(0, addr, False, 0, cycle)
                    core.cycle = cycle + wait
                    core.mem_stall_cycles += wait
                    run_end = run_ends[i]
                    if run_end > seg_end:
                        run_end = seg_end
                    i += 1
                    if run_end > i:
                        k = run_end - i
                        kw = wcum[run_end - 1] - wcum[i - 1]
                        if kw:
                            last_token = system._next_token + kw - 1
                            wait = access_repeat(
                                0, addr, k - kw, kw, last_token, core.cycle
                            )
                            if wait is None:
                                continue
                            system._next_token += kw
                            if track:
                                arch_image[addr] = last_token
                        else:
                            wait = access_repeat(0, addr, k, 0, 0, core.cycle)
                            if wait is None:
                                continue
                        core.cycle += (
                            cum[run_end - 1] - cum[i - 1]
                        ) - k + wait
                        core.mem_stall_cycles += wait
                        i = run_end
                return i

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
                # Same default-arg binding as scalar_span: the group loops
                # below run once per coalescing group.
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

                The aggregate arithmetic (cycles, stalls, counters, token
                range) is O(1) off the cumulative metadata; per-line state
                (MRU order, last-write token, dirty bit) is applied once
                per *distinct* line. The Python path iterates coalescing
                groups (``run_ends`` jumps), never references, so its cost
                matches the scalar loop's O(runs); above a run-count
                crossover the numpy path takes over, keyed on ``slots`` —
                the stretch's mirror slots, which within one all-fast
                stretch map one to one onto its addresses.
                """
                k = r - s
                prev_cum = int(np_cum[s - 1]) if s else 0
                base_w = int(np_wcum[s - 1]) if s else 0
                nw = int(np_wcum[r - 1]) - base_w
                core.cycle += (int(np_cum[r - 1]) - prev_cum) - k + k * l1_latency
                core.mem_stall_cycles += k * l1_latency
                l1_hits.bump(k)
                loads.bump(k - nw)
                if nruns < _NUMPY_BULK_MIN:
                    thaw(s, r)
                    # MRU: one move-to-front per distinct line, ascending
                    # last-touch, so the final order matches k individual
                    # touches (re-inserting moves a key to the end).
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
                    if nw:
                        nt = system._next_token
                        system._next_token = nt + nw
                        # A line's surviving token is its last store in the
                        # stretch: the last write of the last run that
                        # stores to it, whose ordinal is the cumulative
                        # write count at that run's end (intermediates are
                        # unobservable — same argument as access_repeat's
                        # last_token). Dict insertion order = first-store
                        # order, matching the dirty dict's scalar order.
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
                        for addr, tok in last.items():
                            line = l1_tags[addr]
                            line.token = tok
                            if not line._dirty:
                                line._dirty = True
                                l1_dirty[addr] = line
                            line.state = modified
                            if track:
                                arch_image[addr] = tok
                        stores.bump(nw)
                        scheme.on_store_bulk(nw)
                    return
                # Per-slot last touch by scatter-max; the positions that
                # are their slot's last touch, ascending, give the MRU
                # order — no sort.
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
                if nw:
                    nt = system._next_token
                    system._next_token = nt + nw
                    # Same argument as the Python path, by store ordinal:
                    # a line keeps the token of its last store, and lines
                    # dirty in first-store order.
                    wpos = np.flatnonzero(np_writes[s:r])
                    wslots = slots[wpos]
                    ords = positions[:nw]
                    first = np.full(n_slots, nw, dtype=np.int64)
                    np.minimum.at(first, wslots, ords)
                    final = np.zeros(n_slots, dtype=np.int64)
                    np.maximum.at(final, wslots, ords)
                    firsts = first[wslots] == ords
                    toks = (final[wslots[firsts]] + nt).tolist()
                    for addr, tok in zip(a_seg[wpos[firsts]].tolist(), toks):
                        line = l1_tags[addr]
                        line.token = tok
                        if not line._dirty:
                            line._dirty = True
                            l1_dirty[addr] = line
                        line.state = modified
                        if track:
                            arch_image[addr] = tok
                    stores.bump(nw)
                    scheme.on_store_bulk(nw)

            if engine is not None:
                drain = engine.make_drain(gaps, addrs, writes, cum, run_ends, wcum)

            index = 0
            while index < n:
                limit = next_epoch - base
                if crash is not None and crash - base < limit:
                    limit = crash - base
                seg_end = int(np_cum[index:].searchsorted(limit)) + index + 1
                if seg_end > n:
                    seg_end = n
                # ``is True``/``is False`` below: an EID filter value of 0
                # or 1 must not be mistaken for the booleans. The filter is
                # fixed within a segment (the SystemEID only moves at
                # boundaries, which are segment ends by construction).
                sfilter = scheme.vector_store_filter()
                i = index
                while i < seg_end:
                    if scalar_budget > 0:
                        stop = i + scalar_budget
                        if stop > seg_end:
                            stop = seg_end
                        thaw_span(i, stop, seg_end)
                        if engine is not None:
                            # The drain maintains the mirror queues at its
                            # inlined fill/evict sites for free, so bursts
                            # keep the mirror attached — no stale rebuild
                            # at the next sync.
                            ni = drain(i, stop, seg_end, sfilter)
                        else:
                            # Detach the mirror for the burst: the hot
                            # cache paths then pay zero queue-append tax
                            # (byte-identical to REPRO_VECTOR=0), and the
                            # next sync rebuilds from the live tags
                            # instead of replaying what the burst changed.
                            l1._vec = None
                            try:
                                ni = scalar_span(i, stop, seg_end)
                            finally:
                                l1._vec = vec
                                vec.stale = True
                        scalar_budget -= ni - i
                        i = ni
                        continue
                    if seg_end - i < bulk_min:
                        thaw_span(i, seg_end, seg_end)
                        if engine is not None:
                            i = drain(i, seg_end, seg_end, sfilter)
                        else:
                            i = scalar_span(i, seg_end, seg_end)
                        break
                    # -- classify the next window against the mirror,
                    #    reconciled here (and only here) with the live tags
                    vec.sync(l1_tags)
                    wb = i
                    we = wb + window
                    if we > seg_end:
                        we = seg_end
                    a_win = np_addrs[wb:we]
                    sidx = (a_win >> l1_shift) & l1_mask
                    # One little-endian word per mirror row, byte w set
                    # where way w holds the address: tags are unique in a
                    # set and padding ways never match, so a hit is a
                    # nonzero word with exactly one byte set, 1 << 8w.
                    # Multiplying by 0x0001020304050607 lands w in the top
                    # byte (lower terms stay below it, higher ones wrap
                    # off), giving every reference its slot set*ways+way.
                    row = (tags2d[sidx] == a_win[:, None]).view(_ROW_WORD).ravel()
                    hit = row != 0
                    slot = sidx * ways + ((row * _WAY_OF_BYTE) >> 56).view(np.int64)
                    if sfilter is True:
                        fast = hit
                    elif sfilter is False:
                        fast = hit & ~np_writes[wb:we]
                    else:
                        fast = np.where(
                            np_writes[wb:we], hit & (eids[slot] == sfilter), hit
                        )
                    bad = (np.flatnonzero(~fast) + wb).tolist()
                    n_bad = len(bad)
                    if engine is not None and n_bad * 4 >= we - wb:
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
                        # -- walk the window: bulk fast stretches, replay
                        #    residuals, revalidate after each residual
                        bptr = 0
                        bulked_runs = 0
                        while i < we:
                            while bptr < n_bad and bad[bptr] < i:
                                bptr += 1
                            nxt = bad[bptr] if bptr < n_bad else we
                            if nxt - i >= bulk_min:
                                # Size the stretch in coalescing groups,
                                # not references: the scalar loop replays
                                # a same-line run in O(1), so a long but
                                # run-sparse stretch is cheaper replayed.
                                nruns = int(np_rcum[nxt - 1]) - (
                                    int(np_rcum[i - 1]) if i else 0
                                )
                                if nruns >= bulk_min:
                                    bulk_span(i, nxt, nruns, slot[i - wb:nxt - wb])
                                    bulked_runs += nruns
                                    i = nxt
                                    if i >= we:
                                        break
                            stop = nxt + 1
                            if stop > seg_end:
                                stop = seg_end
                            thaw_span(i, stop, seg_end)
                            if engine is not None:
                                i = drain(i, stop, seg_end, sfilter)
                            else:
                                i = scalar_span(i, stop, seg_end)
                            if removed:
                                # Stale-positive guard: a classified-fast
                                # position whose line was just evicted is
                                # no longer safe to bulk — demote it to
                                # residual by splicing it into the bad
                                # list (demotion is always safe:
                                # residuals replay exactly). Re-adds need
                                # no check — a classified miss replays
                                # exactly anyway. This is also what keeps
                                # a bulk stretch's slots one to one with
                                # its addresses: a slot freed mid-window
                                # and refilled by another line can only
                                # be read through a demoted position.
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
                    # -- self-tuning: how much of the window's coalescing
                    #    work was actually bulk-applied?
                    creached = int(np_rcum[i - 1]) - (int(np_rcum[wb - 1]) if wb else 0)
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
                            # scalar burst before probing again. Back off
                            # geometrically while probes keep failing.
                            shorts = 0
                            if not productive and burst_len < _DISENGAGE_MAX:
                                burst_len *= 2
                            productive = False
                            scalar_budget = burst_len
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
        core.finished = True

    def _run_multi_core(self, crash_at_instructions):
        """Interleave cores by always advancing the earliest clock."""
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

    def _run_multi_core_vector(self, crash_at_instructions):
        """Horizon-batched multi-core interpreter.

        The scalar heap loop above pops the earliest ``(cycle, core_id)``
        key and advances that core by ONE reference. But heap keys are
        written only at push time: while core C runs, every other key is
        frozen (``broadcast_stall`` bumps other cores' clocks, never their
        keys). After C retires a reference it is re-pushed and immediately
        re-popped for as long as ``(C.cycle, C.id)`` sorts below the
        smallest other key ``(ok, oid)``. C therefore runs uninterrupted
        — and unobserved by any other core — for every reference whose
        start clock is ``<= L``, where ``L = ok`` if ``C.id < oid`` else
        ``ok - 1``: the turn's *cycle horizon*. The first reference of a
        turn is unconditional (the pop already happened), and the first
        reference that ends past the horizon still retires before the
        turn ends — exactly the scalar continuation rule.

        Within a turn only C moves, so the single-core machinery applies
        verbatim against C's private L1 tag mirror: classify a lookahead
        window array-at-a-time, bulk-apply all-fast stretches (clamped by
        a binary search over the cumulative metadata so their cycle cost
        provably stays inside the horizon), and replay residuals through
        C's per-core miss-chain engine (budget-bounded) or the verbatim
        scalar body. The three globally-serialized facilities stay exact:

        * **Token order** — ``system.new_token()`` allocation is global,
          but no bulk application or coalescing tail ever crosses a turn
          boundary, so tokens are drawn in exactly the scalar heap order.
        * **Epoch accounting** — each turn re-derives ``tbase`` (the
          system instruction count at its chunk entry position) and
          segments the chunk at the next epoch/crash boundary, so
          ``total_instructions`` crosses boundaries after the same
          reference, with the same stop-the-world stall, as the scalar
          loop; drains get ``tbase``/``ibase`` so a ``CrashSignal``
          escaping mid-drain leaves crash-exact counters.
        * **Shared LLC/NVM coupling** — residuals run the exact access
          chain (snoops, back-invalidations, evictions, channel model),
          and fast references by construction cannot touch shared state.

        Bit-identical to ``_run_multi_core`` — same tokens, cycles,
        counters, recovery images — asserted by
        tests/sim/test_multicore_vectorized.py and the fig10/fig12 CI
        byte-diff gates.
        """
        system = self.system
        scheme = self.scheme
        hierarchy = self.hierarchy
        access = hierarchy.access
        cores = self.cores
        l1_hits = hierarchy._l1_hits
        loads = hierarchy._loads
        stores = hierarchy._stores
        modified = LineState.MODIFIED
        epoch_span = self.config.epoch_instructions * self.config.n_cores
        next_epoch = epoch_span
        # Bumped on every epoch fire; live classified windows carry the
        # serial they were built under and drop themselves on mismatch
        # (ACS syncs and commits can retag/evict resident lines).
        epoch_serial = 0
        track = system.track_reference
        arch_image = system.arch_image
        crash = crash_at_instructions
        bulk_min = _BULK_MIN_MC
        # Per-core miss-chain engines over the one shared LLC/NVM sink
        # (None when ineligible — every drain site falls back to the
        # scalar body, byte-identically).
        engines = build_miss_engines(self)
        states = [
            _CoreVecState(
                self.traces[cid],
                hierarchy._l1[cid],
                engines[cid] if engines is not None else None,
            )
            for cid in range(len(cores))
        ]

        def scalar_span(st, core, cid, i, stop, budget, tbase, iofs):
            """The verbatim heap-loop body over [i, stop), one reference
            at a time with eager instruction accounting (bulk application
            defers the counters, so they are re-based from ``tbase`` on
            entry); stops after the first reference whose completion
            crosses ``budget``. Returns the new position."""
            gaps = st.gaps
            addrs = st.addrs
            writes = st.writes
            before = st.cum[i - 1] if i else 0
            system.total_instructions = tbase + before
            core.instructions = iofs + before
            while i < stop:
                gap = gaps[i]
                addr = addrs[i]
                core.advance_compute(gap)
                if writes[i]:
                    token = system.new_token()
                    wait = access(cid, addr, True, token, core.cycle)
                    system.note_store(addr, token)
                else:
                    wait = access(cid, addr, False, 0, core.cycle)
                core.advance_memory(wait)
                system.total_instructions += gap + 1
                i += 1
                if budget is not None and core.cycle > budget:
                    break
            return i

        def bulk_limit(st, core, s, r, budget):
            """End of the largest prefix of the fast stretch [s, r) that
            respects the horizon rule: reference t+1 executes only if the
            clock after t (each fast reference costs its gap plus the L1
            hit latency) is still ``<= budget``; the first crossing
            reference is included, and reference s is unconditional."""
            cum = st.cum
            lat1 = st.lat - 1
            prev = cum[s - 1] if s else 0
            # clock after t = cycle + (cum[t] - prev) + lat1 * (t - s + 1)
            target = budget - (core.cycle - prev - lat1 * (s - 1))
            lo = s
            hi = r
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid] + lat1 * mid > target:
                    hi = mid
                else:
                    lo = mid + 1
            if lo >= r:
                return r
            return lo + 1

        def bulk_apply(st, core, s, r, nruns):
            """Apply the all-fast stretch [s, r) of st's chunk at once —
            the single-core ``bulk_span`` against this core's private L1
            (see there for the MRU-order and last-token arguments; the
            shared hit/load/store counters are core-agnostic)."""
            addrs = st.addrs
            cum = st.cum
            run_ends = st.run_ends
            wcum = st.wcum
            l1_tags = st.l1_tags
            l1_sets = st.l1_sets
            l1_dirty = st.l1_dirty
            l1_shift = st.shift
            l1_mask = st.mask
            l1_latency = st.lat
            k = r - s
            prev_cum = cum[s - 1] if s else 0
            base_w = wcum[s - 1] if s else 0
            nw = wcum[r - 1] - base_w
            core.cycle += (cum[r - 1] - prev_cum) - k + k * l1_latency
            core.mem_stall_cycles += k * l1_latency
            l1_hits.bump(k)
            loads.bump(k - nw)
            if nruns < _NUMPY_BULK_MIN:
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
                if nw:
                    nt = system._next_token
                    system._next_token = nt + nw
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
                    for addr, tok in last.items():
                        line = l1_tags[addr]
                        line.token = tok
                        if not line._dirty:
                            line._dirty = True
                            l1_dirty[addr] = line
                        line.state = modified
                        if track:
                            arch_image[addr] = tok
                    stores.bump(nw)
                    scheme.on_store_bulk(nw)
                return
            a_seg = st.np_addrs[s:r]
            ru, ridx = np.unique(a_seg[::-1], return_index=True)
            for addr in ru[np.argsort(ridx)[::-1]].tolist():
                line = l1_tags[addr]
                cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                if cache_set[0] is not line:
                    cache_set.remove(line)
                    cache_set.insert(0, line)
            if nw:
                nt = system._next_token
                system._next_token = nt + nw
                waddr = a_seg[np.flatnonzero(st.np_writes[s:r])]
                wu, widx = np.unique(waddr[::-1], return_index=True)
                last_tok = (nt + (nw - 1) - widx).tolist()
                wu_list = wu.tolist()
                first_idx = np.unique(waddr, return_index=True)[1]
                for j in np.argsort(first_idx).tolist():
                    addr = wu_list[j]
                    tok = last_tok[j]
                    line = l1_tags[addr]
                    line.token = tok
                    if not line._dirty:
                        line._dirty = True
                        l1_dirty[addr] = line
                    line.state = modified
                    if track:
                        arch_image[addr] = tok
                stores.bump(nw)
                scheme.on_store_bulk(nw)

        def run_span(st, core, cid, i, seg_end, budget, tbase, iofs, sfilter):
            """The window walk over [i, seg_end), bounded by the horizon;
            returns the new position (the caller syncs the instruction
            counters from it).

            Same structure as ``_run_single_core_vector``'s segment walk
            with two multi-core twists. First, the budget insertions:
            drains/scalar spans stop at the first horizon-crossing
            reference, bulk stretches are pre-clamped by ``bulk_limit``,
            and the walk returns as soon as the clock passes the horizon.
            Second — the one that makes the fast path pay at all — the
            classified window OUTLIVES the turn. Lockstep phases make
            turns a handful of references long; re-classifying a few
            hundred references per turn would cost more than it saves
            (and did: the tuner then disengages permanently). So the
            classification (bad list, fast positions, dense flag) lives
            in the per-core state and is consumed incrementally across
            turns, invalidated only when it can actually go stale:

            * any global epoch boundary fires (``epoch_serial``), or the
              segment's store filter changes — the EID-conditioned fast
              mask was computed under the old filter;
            * a classified-fast line is evicted — by this core's own
              residual replays or by another core's snoops and LLC
              back-invalidations while this core was off-turn. Every
              eviction path appends to the mirror's eager ``removed``
              log, so the standard stale-positive guard runs at every
              consumption step, now spanning turns.

            New residency and EID retags flip references only toward
            residual-conservative (ACS private-copy syncs retag old
            epochs to old epochs, never onto the live filter value), so
            a surviving classification is never stale-negative-unsafe.
            """
            drain = st.drain
            vec = st.vec
            l1_tags = st.l1_tags
            removed = st.removed
            while i < seg_end:
                if i < st.win_end:
                    ws = st.win_sfilter
                    if st.win_serial != epoch_serial or not (
                        ws is sfilter
                        or (
                            ws is not True
                            and ws is not False
                            and sfilter is not True
                            and sfilter is not False
                            and ws == sfilter
                        )
                    ):
                        st.win_end = 0
                if i >= st.win_end:
                    if st.scalar_budget > 0:
                        if drain is not None:
                            # Persistent burst drain: one generator frame
                            # per burst, resumed each turn with the new
                            # budget — normally via the driver's direct
                            # resume; through here on the first turn of a
                            # burst and after epoch fires or window
                            # interludes. The generator owns its segment
                            # bound (recomputed per resume from the live
                            # instruction totals) and the burst countdown
                            # (it decrements ``scalar_budget`` itself).
                            # ``i + scalar_budget`` is invariant while the
                            # burst drains, so a live generator matches on
                            # (i, stop) exactly; epoch fires and filter
                            # moves invalidate it the same way they
                            # invalidate windows.
                            stop = i + st.scalar_budget
                            g = st.gen
                            if g is not None and not (
                                st.gen_live
                                and st.gen_i == i
                                and st.gen_stop == stop
                                and st.gen_serial == epoch_serial
                                and (
                                    st.gen_sfilter is sfilter
                                    or (
                                        st.gen_sfilter is not True
                                        and st.gen_sfilter is not False
                                        and sfilter is not True
                                        and sfilter is not False
                                        and st.gen_sfilter == sfilter
                                    )
                                )
                            ):
                                g.close()
                                g = None
                                st.gen = None
                            if g is None:
                                g = drain.turn_gen(
                                    i, stop, seg_end, sfilter, budget,
                                    tbase, iofs, cstate=st,
                                    auto_epoch=next_epoch, auto_crash=crash,
                                )
                                st.gen = g
                                st.gen_live = True
                                st.gen_stop = stop
                                st.gen_serial = epoch_serial
                                st.gen_sfilter = sfilter
                                ni = next(g)
                            else:
                                ni = g.send(budget)
                            if not st.gen_live:
                                g.close()
                                st.gen = None
                        else:
                            stop = i + st.scalar_budget
                            if stop > seg_end:
                                stop = seg_end
                            ni = scalar_span(
                                st, core, cid, i, stop, budget, tbase, iofs
                            )
                            st.scalar_budget -= ni - i
                        i = ni
                        if budget is not None and core.cycle > budget:
                            return i
                        continue
                    if st.n - i < bulk_min:
                        # Chunk tail too short to classify: replay it.
                        if drain is not None:
                            i = drain(
                                i, seg_end, seg_end, sfilter, budget,
                                tbase, iofs,
                            )
                        else:
                            i = scalar_span(
                                st, core, cid, i, seg_end, budget, tbase, iofs
                            )
                        if budget is not None and core.cycle > budget:
                            return i
                        continue
                    # -- classify a fresh window against the mirror,
                    #    reconciled here (and only here) with the live tags
                    vec.sync(l1_tags)
                    wb = i
                    we = wb + st.window
                    if we > st.n:
                        we = st.n
                    a_win = st.np_addrs[wb:we]
                    sidx = (a_win >> st.shift) & st.mask
                    eq = st.tags2d[sidx] == a_win[:, None]
                    hit = eq.any(axis=1)
                    if sfilter is True:
                        fast = hit
                    elif sfilter is False:
                        fast = hit & ~st.np_writes[wb:we]
                    else:
                        fast = np.where(
                            st.np_writes[wb:we],
                            (eq & (st.eids2d[sidx] == sfilter)).any(axis=1),
                            hit,
                        )
                    bad = (np.flatnonzero(~fast) + wb).tolist()
                    removed.clear()
                    st.win_wb = wb
                    st.win_end = we
                    st.win_bad = bad
                    st.win_nbad = len(bad)
                    st.win_bptr = 0
                    st.win_bulked = 0
                    st.win_serial = epoch_serial
                    st.win_sfilter = sfilter
                    # Residual-dense windows (≥25%) hand everything to
                    # the drain — exact path, no guard bookkeeping.
                    st.win_dense = (
                        drain is not None and len(bad) * 4 >= we - wb
                    )
                    if not st.win_dense:
                        st.win_fpos = np.flatnonzero(fast) + wb
                        st.win_fast = a_win[fast]
                # -- consume the live window up to this turn's bound
                lim = st.win_end
                if lim > seg_end:
                    lim = seg_end
                if st.win_dense:
                    i = drain(i, lim, seg_end, sfilter, budget, tbase, iofs)
                    removed.clear()
                    if i >= st.win_end:
                        win_done(st, i)
                else:
                    i = win_turn(
                        st, core, cid, i, lim, seg_end, budget, sfilter,
                        tbase, iofs,
                    )
                if budget is not None and core.cycle > budget:
                    return i
            return i

        def win_turn(st, core, cid, i, lim, seg_bound, budget, sfilter,
                     tbase, iofs):
            """Walk the live non-dense window from ``i`` up to ``lim``,
            bounded by the horizon; residual-drain tails clamp at
            ``seg_bound``. Shared by run_span (which passes the true
            segment end) and the driver's window hot path (which passes
            ``win_end`` after proving the whole window fits inside the
            segment — a tighter clamp only trades coalescing for
            per-reference replay, which is state-identical)."""
            drain = st.drain
            removed = st.removed
            rcum = st.rcum
            bad = st.win_bad
            n_bad = st.win_nbad
            bptr = st.win_bptr
            fpos = st.win_fpos
            fast_addrs = st.win_fast
            # Cheapest possible cost of bulk_min - 1 fast references
            # (all gaps zero): if even that crosses the horizon, the
            # clamp is guaranteed to cut the stretch below bulk_min,
            # so skip the bulk machinery without binary-searching.
            floor_cost = (bulk_min - 1) * st.lat
            while i < lim:
                if removed:
                    # Stale-positive guard, now cross-turn: demote
                    # classified-fast positions whose line was
                    # evicted — by this core's replays or by other
                    # cores while this core was off-turn.
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
                while bptr < n_bad and bad[bptr] < i:
                    bptr += 1
                nxt = bad[bptr] if bptr < n_bad else st.win_end
                if nxt > lim:
                    nxt = lim
                if nxt - i >= bulk_min and (
                    budget is None or core.cycle + floor_cost <= budget
                ):
                    nruns = rcum[nxt - 1] - (rcum[i - 1] if i else 0)
                    if nruns >= bulk_min:
                        e = nxt
                        if budget is not None:
                            e = bulk_limit(st, core, i, nxt, budget)
                        if e < nxt and e - i < bulk_min:
                            # Clamped to a stub: the per-reference
                            # replay below stops at the same boundary
                            # (bulk_limit replicates the per-reference
                            # budget rule), so fall through rather
                            # than pay the bulk call overhead — and a
                            # stub must not count as bulked, or the
                            # tuner keeps windows engaged on mixes
                            # whose heap turns chop every stretch.
                            pass
                        elif e < nxt:
                            # Horizon-clamped prefix: apply it and
                            # end the turn.
                            nruns = rcum[e - 1] - (
                                rcum[i - 1] if i else 0
                            )
                            bulk_apply(st, core, i, e, nruns)
                            st.win_bulked += nruns
                            i = e
                            break
                        else:
                            bulk_apply(st, core, i, nxt, nruns)
                            st.win_bulked += nruns
                            i = nxt
                            if i >= lim:
                                break
                            if budget is not None and core.cycle > budget:
                                # Full stretch applied, but its last
                                # reference crossed the horizon.
                                break
                stop = nxt + 1
                if stop > seg_bound:
                    stop = seg_bound
                if drain is not None:
                    i = drain(
                        i, stop, seg_bound, sfilter, budget, tbase, iofs
                    )
                else:
                    i = scalar_span(
                        st, core, cid, i, stop, budget, tbase, iofs
                    )
                if budget is not None and core.cycle > budget:
                    break
            st.win_bptr = bptr
            st.win_bad = bad
            st.win_nbad = n_bad
            if i >= st.win_end:
                win_done(st, i)
            return i

        def win_done(st, i):
            """Window fully consumed: account and self-tune."""
            rcum = st.rcum
            wb = st.win_wb
            creached = rcum[i - 1] - (rcum[wb - 1] if wb else 0)
            st.win_end = 0
            if st.win_bulked * 2 >= creached:
                st.shorts = 0
                st.productive = True
                st.burst_len = _DISENGAGE_REFS
                if st.win_nbad == 0 and st.window < _WINDOW_MAX:
                    st.window *= 2
            else:
                if st.window > _WINDOW_MIN:
                    st.window //= 2
                st.shorts += 1
                if st.shorts >= _SHORT_LIMIT:
                    st.shorts = 0
                    if (
                        not st.productive
                        and st.burst_len < _DISENGAGE_MAX
                    ):
                        st.burst_len *= 2
                    st.productive = False
                    st.scalar_budget = st.burst_len

        def run_turn(st, core, cid, budget):
            """Advance one core through the current chunk until the
            horizon, or the chunk ends; fires epoch boundaries and crash
            stops exactly as the scalar loop. Returns True on crash."""
            nonlocal next_epoch, epoch_serial
            cum = st.cum
            n = st.n
            while st.pos < n:
                pos = st.pos
                before = cum[pos - 1] if pos else 0
                tbase = system.total_instructions - before
                iofs = core.instructions - before
                limit = next_epoch - tbase
                if crash is not None and crash - tbase < limit:
                    limit = crash - tbase
                seg_end = bisect_left(cum, limit, pos) + 1
                if seg_end > n:
                    seg_end = n
                # Fixed within the segment, like the single-core path:
                # the SystemEID only moves at boundaries, and only this
                # core runs until then.
                sfilter = scheme.vector_store_filter()
                i = run_span(
                    st, core, cid, pos, seg_end, budget, tbase, iofs, sfilter
                )
                st.pos = i
                done = cum[i - 1] if i else 0
                total = tbase + done
                system.total_instructions = total
                core.instructions = iofs + done
                if i >= seg_end:
                    if total >= next_epoch:
                        stall = scheme.on_epoch_boundary(core.cycle)
                        system.broadcast_stall(stall)
                        next_epoch += epoch_span
                        epoch_serial += 1
                    if crash is not None and total >= crash:
                        self.crashed = True
                        return True
                if budget is not None and core.cycle > budget:
                    return False
            return False

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = [(0, cid) for cid in range(len(cores))]
        heapq.heapify(heap)
        try:
            while heap:
                _key, cid = heappop(heap)
                st = states[cid]
                core = cores[cid]
                if heap:
                    # The horizon: the smallest other key, adjusted for
                    # the heap's core-id tie-break. Frozen for the whole
                    # turn — exactly what the scalar pop compares
                    # against, stale clocks included.
                    ok, oid = heap[0]
                    budget = ok if cid < oid else ok - 1
                else:
                    budget = None
                g = st.gen
                if (
                    g is not None
                    and st.gen_live
                    and st.gen_serial == epoch_serial
                    and st.gen_i == st.pos
                ):
                    # Direct resume of a parked burst generator: it owns
                    # the whole turn protocol (segment bound, counters,
                    # burst countdown), so the per-turn run_turn/run_span
                    # frames and the segment bisect are skipped entirely.
                    # Only the store filter needs revalidating here — an
                    # epoch fire would have bumped the serial.
                    sfilter = scheme.vector_store_filter()
                    gsf = st.gen_sfilter
                    if gsf is sfilter or (
                        gsf is not True
                        and gsf is not False
                        and sfilter is not True
                        and sfilter is not False
                        and gsf == sfilter
                    ):
                        g.send(budget)
                        if st.gen_live:
                            # Parked at the horizon: the turn is over.
                            heappush(heap, (core.cycle, cid))
                            continue
                        # The generator retired its burst, its segment
                        # bound, or the chunk tail: run the boundary
                        # bookkeeping run_turn does after a segment (the
                        # totals can only have crossed if the boundary
                        # reference itself retired), then rejoin the
                        # general loop with whatever budget remains.
                        g.close()
                        st.gen = None
                        total = system.total_instructions
                        if total >= next_epoch:
                            stall = scheme.on_epoch_boundary(core.cycle)
                            system.broadcast_stall(stall)
                            next_epoch += epoch_span
                            epoch_serial += 1
                        if crash is not None and total >= crash:
                            self.crashed = True
                            return
                        if budget is not None and core.cycle > budget:
                            heappush(heap, (core.cycle, cid))
                            continue
                elif (
                    st.pos < st.win_end
                    and not st.win_dense
                    and st.win_serial == epoch_serial
                ):
                    # Window hot path: consume the live classified window
                    # without the run_turn/run_span frames or the segment
                    # bisect. Legal only when the whole window provably
                    # fits inside the segment — no epoch fire or crash
                    # stop can land before win_end — which also makes
                    # win_end a valid residual tail clamp.
                    i = st.pos
                    wcum = st.cum
                    before = wcum[i - 1] if i else 0
                    total = system.total_instructions
                    room = next_epoch - total
                    if crash is not None and crash - total < room:
                        room = crash - total
                    we = st.win_end
                    if wcum[we - 1] - before < room:
                        sfilter = scheme.vector_store_filter()
                        wsf = st.win_sfilter
                        if wsf is sfilter or (
                            wsf is not True
                            and wsf is not False
                            and sfilter is not True
                            and sfilter is not False
                            and wsf == sfilter
                        ):
                            tbase = total - before
                            iofs = core.instructions - before
                            ni = win_turn(
                                st, core, cid, i, we, we, budget,
                                sfilter, tbase, iofs,
                            )
                            st.pos = ni
                            done = wcum[ni - 1] if ni else 0
                            system.total_instructions = tbase + done
                            core.instructions = iofs + done
                            if budget is not None and core.cycle > budget:
                                heappush(heap, (core.cycle, cid))
                                continue
                elif (
                    budget is not None
                    and st.scalar_budget > 0
                    and st.pos >= st.win_end
                    and st.pos < st.n
                    and st.drain is None
                ):
                    # Scalar-burst hot path for engine-declined configs
                    # (banked NVM, multi-channel — no persistent drain
                    # generator exists to park): the verbatim heap-loop
                    # body without the run_turn/run_span frames or the
                    # segment bisect. Legal only when the whole candidate
                    # span provably fits inside the segment; the span is
                    # first capped by the most references the cycle
                    # budget could possibly admit (each costs at least
                    # the L1 hit latency, and the first is
                    # unconditional), which keeps the proof cheap and
                    # usually successful.
                    i = st.pos
                    cum = st.cum
                    before = cum[i - 1] if i else 0
                    total = system.total_instructions
                    room = next_epoch - total
                    if crash is not None and crash - total < room:
                        room = crash - total
                    stop = i + st.scalar_budget
                    maxr = (budget - core.cycle) // st.lat + 2
                    if stop - i > maxr:
                        stop = i + maxr
                    if stop > st.n:
                        stop = st.n
                    if stop > i and cum[stop - 1] - before < room:
                        tbase = total - before
                        iofs = core.instructions - before
                        ni = scalar_span(
                            st, core, cid, i, stop, budget, tbase, iofs
                        )
                        st.scalar_budget -= ni - i
                        st.pos = ni
                        if core.cycle > budget:
                            heappush(heap, (core.cycle, cid))
                            continue
                alive = True
                while True:
                    if st.pos >= st.n and not st.load_chunk():
                        alive = False
                        break
                    if run_turn(st, core, cid, budget):
                        return
                    if budget is not None and core.cycle > budget:
                        break
                if alive:
                    heappush(heap, (core.cycle, cid))
                else:
                    core.finished = True
        finally:
            # Any drain generator still parked at a yield (a crash stop,
            # or a core that finished through the window path mid-burst)
            # holds deferred stat deltas — closing it flushes them.
            for st in states:
                if st.gen is not None:
                    st.gen.close()
                    st.gen = None

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
