"""Multi-core miss-chain engine: the whole reference chain as one fused loop.

In the reference loop every reference runs ``CacheHierarchy.access`` — a
chain of six-plus Python calls per miss (``access`` → ``_fill_to_l1`` →
``_fill_to_l2`` → ``_insert_llc`` → ``demand_fill``/``write_back`` →
channel arithmetic), each re-resolving attributes the previous frame
already held, plus one heap operation per reference to pick the next
core. On several cores the fast engine replaces both with a **drain**: a
single generator that runs the cores' references with the cache chain
transcribed inline — L1/L2/LLC probes, LRU order, fills, victim
selection in eviction order, back-invalidation, the demand read's NVM
channel recurrence as local-integer arithmetic and the stat deltas.
Scheme semantics are not transcribed: ``on_store``, ``on_store_repeat``,
``write_back`` and ``fill_token`` are always calls to the scheme's own
methods at the exact scalar call sites. The one exception is generic:
under an EID ``vector_store_filter()``, a store to a line tagged with
that EID is scheme-silent, so the drain only counts it and hands the
count to ``on_store_bulk`` before the next out-of-line ``on_store`` and
at every yield. (One core needs none of this: its cache outcome is
scheme-free and replayed from a trajectory, see
:mod:`repro.cache.trajectory`.)

Deferred bookkeeping:

* stat counters accumulate in locals and land once per run
  (delta-commutative with anything an out-of-line callee bumps);
* ``core.cycle`` / ``mem_stall_cycles`` / ``system._next_token`` live in
  locals and are written back at every core switch and yield.

**Bit-identity argument.** The drain visits references in exactly the
scalar order and mutates all *shared* structures (tag dicts, LRU lists,
dirty dicts, EID index) at exactly the scalar program points. Deferral
is restricted to state nothing reads mid-drain, and every deferral is
forced down before any point that could observe it:

* the silent-store count lands through ``on_store_bulk`` before every
  out-of-line ``on_store`` (so each call sees the scheme state the
  scalar loop leaves) and at every yield;
* channel timing state is held in locals but synced to the ``_Channel``
  object around every scheme call (undo flushes, write-backs and store
  hooks issue NVM traffic of their own); a live-flag keeps the exit sync
  from clobbering updates made by a callee that raised;
* counters/cycles/tokens flush in a ``finally``, so even a mid-drain
  ``CrashSignal`` leaves exactly the scalar crash-time values.

**Safety conditions** (:func:`decline_reason` names the first one that
fails; the simulation then runs the reference loop,
``Simulation._run_reference``, as it does under ``REPRO_VECTOR=0``; the
single-core trajectory replay makes the same checks):

* the hierarchy's eviction sink is the scheme itself;
* no DRAM cache in front of NVM;
* a single NVM channel, whose recurrence the drain transcribes.

**The turn order.** The drain keeps the order of the reference heap loop
(``Simulation._run_reference``): it pops the earliest ``cycle * n_cores +
core`` key (the heap loop's ``(cycle, core)`` tuple as one int) and runs
that core while its clock stays within the *horizon* — the smallest
other key, which no other core can move while this one runs. The first
reference past the horizon still retires; then the loop writes back the
core's clock, ``heappushpop``s its key, and unpacks the next core's
private caches and trace columns (:meth:`MissChainEngine.bind`) in
place. Everything the cores share (token counter, NVM channel,
silent-store count, stat deltas) stays in locals across the switch.
The loop yields to its caller (``Simulation._run_multi_core_drain``)
only where the running core retires the reference that crosses the next
epoch or crash boundary, or the last reference of its chunk.

A scheme needs nothing to run on the drain: every hook it overrides is
called where the reference loop calls it, so a new scheme is
automatically exact.

The EID-index discard on LLC eviction is deliberately **never** deferred:
with a deferred discard, an old line and a same-address successor with
the same EID would share a bucket slot, and the late discard would pop
the successor's entry — index drift the fail-fast ``retag`` would only
catch much later. ``EidIndex.verify_against`` is the differential oracle
for exactly this class of bug.
"""

import heapq
import types
from bisect import bisect_left

from repro.baselines.base import CrashConsistencyScheme
from repro.cache.line import CacheLine, LineState
from repro.common.eid import EpochId
from repro.common.errors import SimulationError
from repro.mem.nvm import AccessCategory

#: The horizon of a turn no other core can end: the last core still
#: running.
_NO_HORIZON = 1 << 62


def decline_reason(sim):
    """Why the drain cannot run ``sim``, or None when it can."""
    hierarchy = sim.hierarchy
    if hierarchy.sink is not sim.scheme:
        return "eviction sink is not the scheme"
    controller = hierarchy.controller
    if controller.dram_cache is not None:
        return "dram cache in front of nvm"
    device = controller.device
    if device._only_channel is None:
        return "nvm has %d channels" % len(device._channels)
    return None


def _store_mode(sfilter):
    """The drain's store dispatch for a ``vector_store_filter()`` value:
    ``(0, None)`` every store is scheme-silent, ``(1, None)`` every store
    calls ``sink.on_store``, ``(2, eid)`` a store to a line tagged ``eid``
    is silent and any other store calls ``sink.on_store``."""
    if sfilter is True:
        return 0, None
    if sfilter is False:
        return 1, None
    return 2, sfilter


class CoreTurns:
    """What the multi-core drain loop shares with the simulation loop
    that resumes it.

    ``heap`` holds one ``cycle * n_cores + core`` key per core waiting
    for a turn; ``bindings[core]`` is the core's :meth:`MissChainEngine.bind`
    tuple (None once its trace is exhausted) and ``pos[core]`` its
    position in that chunk. ``cid`` is the core the loop last stopped
    on, and ``done`` counts the references of chunks already retired, so
    ``done + sum(pos)`` is every reference run so far.
    """

    __slots__ = ("heap", "bindings", "pos", "cid", "done")

    def __init__(self, n_cores):
        self.heap = []
        self.bindings = [None] * n_cores
        self.pos = [0] * n_cores
        self.cid = 0
        self.done = 0


class MissChainEngine:
    """Per-simulation state + the drain-closure factory."""

    def __init__(self, sim):
        hierarchy = sim.hierarchy
        self.hierarchy = hierarchy
        self.system = sim.system
        self.cores = sim.cores
        controller = hierarchy.controller
        self.controller = controller
        self.device = controller.device
        self.l2 = hierarchy._l2[0]
        self.llc = hierarchy.llc

    def bind(self, core_id, chunk):
        """One core's switch-in tuple: its clock, private L1/L2 and the
        replay columns of its current chunk, in the order the drain
        loop unpacks them."""
        l1 = self.hierarchy._l1[core_id]
        l2 = self.hierarchy._l2[core_id]
        gaps, addrs, writes, cum, run_ends, wcum = chunk.lists
        return (
            self.cores[core_id],
            l1, l1._tags, l1._sets, l1._dirty_lines,
            l2, l2._tags, l2._sets, l2._dirty_lines,
            gaps, addrs, writes, cum, run_ends, wcum, len(gaps),
        )

    # ------------------------------------------------------------------
    # the drain
    # ------------------------------------------------------------------

    def make_drain(self):
        """Build the fused multi-core drain loop.

        Returns an object whose ``turn_gen(i, turns, boundary)`` is the
        generator that runs the whole simulation over a
        :class:`CoreTurns`, binding each core's own chunk columns as it
        switches to it (``i``, the references already run, is 0 for a
        fresh run; positions come from ``turns``). It yields the number
        of references run so far each time the running core retires the
        reference that crosses ``boundary`` — the next epoch or crash
        point, in total instructions — or the last of its chunk, after
        writing back every counter the caller reads. The caller fires the
        epoch, stops on a crash, or loads the core's next chunk (setting
        its binding to None when the trace is done) and sends the next
        boundary. The generator returns when no core is left. A
        ``CrashSignal`` escaping mid-chain leaves ``turns.cid`` /
        ``turns.pos`` on the in-flight reference.
        """
        hierarchy = self.hierarchy
        system = self.system
        controller = self.controller
        device = self.device
        l1, l2, llc = hierarchy._l1[0], self.l2, self.llc
        channel = device._only_channel
        sink = hierarchy.sink

        def turn_gen(
            i,
            turns,
            boundary,
            # Default-arg binding: the body runs per reference, and
            # locals beat closure derefs.
            bisect=bisect_left,
            heappop=heapq.heappop,
            heappushpop=heapq.heappushpop,
            store_filter=sink.vector_store_filter,
            back_inv=hierarchy._back_invalidate,
            system=system,
            track=system.track_reference,
            arch_image=system.arch_image,
            modified=LineState.MODIFIED,
            # L1 (the first core's private caches; every turn rebinds them
            # per core, together with the core and its chunk columns)
            cid=0,
            core=self.cores[0],
            l1=l1,
            l1_tags=l1._tags,
            l1_sets=l1._sets,
            l1_dirty=l1._dirty_lines,
            l1_shift=l1._line_shift,
            l1_mask=l1._set_mask,
            l1_assoc=l1.assoc,
            l1_latency=l1.hit_latency,
            lat1=l1.hit_latency - 1,
            # L2
            l2=l2,
            l2_tags=l2._tags,
            l2_sets=l2._sets,
            l2_dirty=l2._dirty_lines,
            l2_shift=l2._line_shift,
            l2_mask=l2._set_mask,
            l2_assoc=l2.assoc,
            l2_latency=l2.hit_latency,
            # LLC
            llc=llc,
            llc_tags=llc._tags,
            llc_sets=llc._sets,
            llc_dirty=llc._dirty_lines,
            llc_shift=llc._line_shift,
            llc_mask=llc._set_mask,
            llc_assoc=llc.assoc,
            llc_latency=llc.hit_latency,
            index=llc.eid_index,
            buckets=llc.eid_index.buckets if llc.eid_index is not None else None,
            index_refresh=(
                llc.eid_index.refresh if llc.eid_index is not None else None
            ),
            # NVM / controller
            channel=channel,
            read_occ=device._line_read_occupancy,
            icap=device._interference_cap,
            img_lines=controller.image._lines,
            smf=hierarchy.store_miss_factor,
            # the scheme's own hooks, called at the scalar call sites
            ft=(
                sink.fill_token
                if type(sink).fill_token is not CrashConsistencyScheme.fill_token
                else None
            ),
            sink_on_store=sink.on_store,
            sink_repeat=sink.on_store_repeat,
            sink_bulk=sink.on_store_bulk,
            sink_wb=sink.write_back,
            snoop=hierarchy._snoop_invalidate,
            # the hierarchy's fault plan (installed before run())
            h_fault=hierarchy.fault_plan,
            # stat slots (deferred via local deltas, flushed in finally)
            stats_add=hierarchy.stats.add,
            s_l1_hits=hierarchy._l1_hits,
            s_loads=hierarchy._loads,
            s_stores=hierarchy._stores,
            s_l1_miss=hierarchy._l1_misses,
            s_l2_hits=hierarchy._l2_hits,
            s_l2_miss=hierarchy._l2_misses,
            s_llc_hits=hierarchy._llc_hits,
            s_llc_miss=hierarchy._llc_misses,
            s_llc_dirty=hierarchy._llc_dirty_evictions,
            s_llc_clean=hierarchy._llc_clean_evictions,
            # Every L1 (and every L2) counts into the one shared
            # "l1.evictions" ("l2.evictions") slot, so one delta per
            # level serves all cores.
            s_l1_ev=l1._evictions,
            s_l2_ev=l2._evictions,
            s_llc_ev=llc._evictions,
            s_fills=controller._demand_fills,
            s_iops_dr=device._iops_slots[AccessCategory.DEMAND_READ],
            s_bytes_r=device._bytes_read,
            CacheLine=CacheLine,
            new_line=CacheLine.__new__,
            EXCLUSIVE=LineState.EXCLUSIVE,
            EID_NONE=EpochId.NONE,
            SimulationError=SimulationError,
        ):
            smode, sys_eid = _store_mode(store_filter())
            heap = turns.heap
            bindings = turns.bindings
            cpos = turns.pos
            ncores = len(bindings)
            room = boundary - system.total_instructions
            # Nothing runs until the first pop below.
            push = 0
            clean = True
            # Deferred accumulators.
            ccycle = core.cycle
            mstall = core.mem_stall_cycles
            ntok = system._next_token
            # Silent stores (smode 2) not yet handed to on_store_bulk.
            silent = 0
            d_l1_hits = d_loads = d_stores = d_l1_miss = 0
            d_l2_hits = d_l2_miss = d_llc_hits = d_llc_miss = 0
            d_llc_dirty = d_llc_clean = d_l1_ev = d_l2_ev = d_llc_ev = 0
            d_fills = d_iops_dr = d_bytes_r = 0
            # Channel recurrence state as local ints; ch_live flags when
            # the locals (not the object) are authoritative.
            rbu = channel.read_busy_until
            wbk = channel.write_backlog
            bua = channel.backlog_updated_at
            ch_live = True
            try:
                while True:
                    # ==== switch to the earliest (cycle, core) ====
                    if push == 1:
                        # The running core crossed its horizon: write
                        # back its clock and position, and hand the
                        # turn to the smallest key — the scalar loop's
                        # push-then-pop.
                        core.cycle = ccycle
                        core.mem_stall_cycles = mstall
                        cpos[cid] = i
                        room = climit - cum[i - 1]
                        key = heappushpop(heap, ccycle * ncores + cid)
                    elif push:
                        # Back from the caller, the core still running
                        # (its state was written back at the yield).
                        key = heappushpop(heap, ccycle * ncores + cid)
                    elif heap:
                        # First turn, or the last core's trace ran out.
                        key = heappop(heap)
                        clean = False
                    else:
                        return
                    cid = key % ncores
                    (
                        core, l1, l1_tags, l1_sets, l1_dirty,
                        l2, l2_tags, l2_sets, l2_dirty,
                        gaps, addrs, writes, cum, run_ends, wcum, n,
                    ) = bindings[cid]
                    i = cpos[cid]
                    ccycle = core.cycle
                    mstall = core.mem_stall_cycles
                    # The horizon: the core keeps the turn while its
                    # key stays below the smallest other key, i.e.
                    # while its clock is at most this.
                    if heap:
                        budget = (heap[0] - cid - 1) // ncores
                    else:
                        budget = _NO_HORIZON
                    # The segment ends at (and includes) the first
                    # reference whose retirement reaches the boundary.
                    climit = (cum[i - 1] if i else 0) + room
                    if cum[-1] < climit:
                        seg_end = n
                    else:
                        seg_end = bisect(cum, climit, i) + 1
                    push = 1
                    while i < seg_end:
                        cycle = ccycle + gaps[i]
                        addr = addrs[i]
                        w = writes[i]
                        if w:
                            # Token drawn before the access chain, as the
                            # scalar loop does — a crash mid-fill must leave
                            # the scalar _next_token.
                            token = ntok
                            ntok = token + 1
                        line = l1_tags.get(addr)
                        if line is not None:
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            if cache_set[0] is not line:
                                cache_set.remove(line)
                                cache_set.insert(0, line)
                            d_l1_hits += 1
                            wait = l1_latency
                        else:
                            # ==== _fill_to_l1, transcribed ====
                            d_l1_miss += 1
                            fstall = 0
                            source = l2_tags.get(addr)
                            if source is not None:
                                cache_set = l2_sets[(addr >> l2_shift) & l2_mask]
                                if cache_set[0] is not source:
                                    cache_set.remove(source)
                                    cache_set.insert(0, source)
                                lat = l2_latency
                                d_l2_hits += 1
                            else:
                                d_l2_miss += 1
                                # ==== _fill_to_l2, transcribed ====
                                llc_line = llc_tags.get(addr)
                                if llc_line is not None:
                                    cache_set = llc_sets[
                                        (addr >> llc_shift) & llc_mask
                                    ]
                                    if cache_set[0] is not llc_line:
                                        cache_set.remove(llc_line)
                                        cache_set.insert(0, llc_line)
                                    lat2 = llc_latency
                                    d_llc_hits += 1
                                    if (
                                        llc_line.owner is not None
                                        and llc_line.owner != cid
                                    ):
                                        # Another core holds the line: the
                                        # out-of-line snoop pulls its private
                                        # data and releases ownership. It only
                                        # touches the foreign core's caches,
                                        # never the drain's deferred state.
                                        snoop(llc_line)
                                else:
                                    d_llc_miss += 1
                                    if ft is not None:
                                        channel.read_busy_until = rbu
                                        channel.write_backlog = wbk
                                        channel.backlog_updated_at = bua
                                        ch_live = False
                                        override = ft(addr)
                                        rbu = channel.read_busy_until
                                        wbk = channel.write_backlog
                                        bua = channel.backlog_updated_at
                                        ch_live = True
                                    else:
                                        override = None
                                    # NvmDevice.read_line / _Channel.read,
                                    # transcribed on locals.
                                    if cycle > bua:
                                        wbk -= cycle - bua
                                        if wbk < 0:
                                            wbk = 0
                                        bua = cycle
                                    start = rbu if rbu > cycle else cycle
                                    start += wbk if wbk < icap else icap
                                    finish = start + read_occ
                                    rbu = finish
                                    d_iops_dr += 1
                                    d_bytes_r += 64
                                    d_fills += 1
                                    mem_lat = finish - cycle
                                    if override is not None:
                                        token_f = override
                                        stats_add("llc.fills_from_log")
                                    else:
                                        # MemoryImage.read inline (0 is
                                        # INITIAL_TOKEN; _lines never rebinds
                                        # outside restore()).
                                        token_f = img_lines.get(addr, 0)
                                    # CacheLine.__init__, slot-by-slot (one
                                    # fresh line per NVM fill).
                                    llc_line = new_line(CacheLine)
                                    llc_line.addr = addr
                                    llc_line.state = EXCLUSIVE
                                    llc_line._dirty = False
                                    llc_line.token = token_f
                                    llc_line.eid = EID_NONE
                                    llc_line.owner = None
                                    llc_line.sub_eids = None
                                    llc_line._home = None
                                    # ==== _insert_llc, transcribed ====
                                    cache_set = llc_sets[
                                        (addr >> llc_shift) & llc_mask
                                    ]
                                    cache_set.insert(0, llc_line)
                                    llc_tags[addr] = llc_line
                                    llc_line._home = llc
                                    # (fresh line: clean, untagged — the dirty
                                    # dict / EID index inserts are dead code)
                                    if len(cache_set) > llc_assoc:
                                        victim = cache_set.pop()
                                        vaddr = victim.addr
                                        del llc_tags[vaddr]
                                        victim._home = None
                                        if victim._dirty:
                                            del llc_dirty[vaddr]
                                        # EidIndex.discard, inline — never
                                        # deferred (see module docstring).
                                        if index is not None:
                                            if victim.sub_eids is not None:
                                                index.sub.pop(vaddr, None)
                                            elif victim.eid >= 0:
                                                bucket = buckets.get(victim.eid)
                                                if bucket is not None:
                                                    bucket.pop(vaddr, None)
                                                    if not bucket:
                                                        del buckets[victim.eid]
                                        d_llc_ev += 1
                                        # ==== _back_invalidate, transcribed
                                        # for the drain's own core; a victim
                                        # owned by another core goes through
                                        # the out-of-line helper, which only
                                        # touches that core's private caches —
                                        # none of the drain's deferred state.
                                        owner = victim.owner
                                        if owner is not None and owner != cid:
                                            back_inv(victim)
                                        elif owner is not None:
                                            l1_copy = l1_tags.pop(vaddr, None)
                                            if l1_copy is not None:
                                                l1_sets[
                                                    (vaddr >> l1_shift) & l1_mask
                                                ].remove(l1_copy)
                                                l1_copy._home = None
                                                if l1_copy._dirty:
                                                    del l1_dirty[vaddr]
                                            l2_copy = l2_tags.pop(vaddr, None)
                                            if l2_copy is not None:
                                                l2_sets[
                                                    (vaddr >> l2_shift) & l2_mask
                                                ].remove(l2_copy)
                                                l2_copy._home = None
                                                if l2_copy._dirty:
                                                    del l2_dirty[vaddr]
                                            if l1_copy is not None and l1_copy._dirty:
                                                src = l1_copy
                                            elif l2_copy is not None and l2_copy._dirty:
                                                src = l2_copy
                                            else:
                                                src = None
                                            if src is not None:
                                                # _merge_lines inline: the LLC
                                                # victim is detached (_home is
                                                # None), so the dirty-dict and
                                                # EID-index arms are dead.
                                                victim.token = src.token
                                                victim._dirty = True
                                                victim.eid = src.eid
                                                if src.sub_eids is not None:
                                                    victim.sub_eids = list(
                                                        src.sub_eids
                                                    )
                                            victim.owner = None
                                        if victim._dirty:
                                            d_llc_dirty += 1
                                            if h_fault is not None:
                                                h_fault.notify("llc_eviction")
                                            channel.read_busy_until = rbu
                                            channel.write_backlog = wbk
                                            channel.backlog_updated_at = bua
                                            ch_live = False
                                            fstall += sink_wb(
                                                vaddr, victim.token, cycle
                                            )
                                            rbu = channel.read_busy_until
                                            wbk = channel.write_backlog
                                            bua = channel.backlog_updated_at
                                            ch_live = True
                                        else:
                                            d_llc_clean += 1
                                    lat2 = llc_latency + mem_lat
                                llc_line.owner = cid
                                # copy_fill inline (LLC → L2).
                                source = new_line(CacheLine)
                                source.addr = addr
                                source.state = EXCLUSIVE
                                source._dirty = False
                                source.token = llc_line.token
                                source.eid = llc_line.eid
                                source.owner = None
                                sub = llc_line.sub_eids
                                source.sub_eids = (
                                    list(sub) if sub is not None else None
                                )
                                source._home = None
                                cache_set = l2_sets[(addr >> l2_shift) & l2_mask]
                                cache_set.insert(0, source)
                                l2_tags[addr] = source
                                source._home = l2
                                # (copy_fill lines are clean: no dirty insert)
                                if len(cache_set) > l2_assoc:
                                    victim = cache_set.pop()
                                    vaddr = victim.addr
                                    del l2_tags[vaddr]
                                    victim._home = None
                                    if victim._dirty:
                                        del l2_dirty[vaddr]
                                    d_l2_ev += 1
                                    # l1.remove(vaddr), inline (L1 has no EID
                                    # index).
                                    dropped = l1_tags.pop(vaddr, None)
                                    if dropped is not None:
                                        l1_sets[
                                            (vaddr >> l1_shift) & l1_mask
                                        ].remove(dropped)
                                        dropped._home = None
                                        if dropped._dirty:
                                            del l1_dirty[vaddr]
                                    if dropped is not None and dropped._dirty:
                                        # _merge_lines inline: the L2 victim is
                                        # detached (_home None) — only the data
                                        # fold is live.
                                        victim.token = dropped.token
                                        victim._dirty = True
                                        victim.eid = dropped.eid
                                        if dropped.sub_eids is not None:
                                            victim.sub_eids = list(
                                                dropped.sub_eids
                                            )
                                    if victim._dirty:
                                        target = llc_tags.get(vaddr)
                                        if target is None:
                                            raise SimulationError(
                                                "inclusion violated: L2 victim "
                                                "%#x absent from LLC" % vaddr
                                            )
                                        # _merge_lines inline: target lives in
                                        # the LLC — dirty dict and EID-index
                                        # refresh are live.
                                        target.token = victim.token
                                        if not target._dirty:
                                            target._dirty = True
                                            llc_dirty[vaddr] = target
                                        old = target.eid
                                        new_eid = victim.eid
                                        had_sub = target.sub_eids is not None
                                        target.eid = new_eid
                                        if victim.sub_eids is not None:
                                            target.sub_eids = list(
                                                victim.sub_eids
                                            )
                                        if new_eid != old or (
                                            target.sub_eids is not None
                                            and not had_sub
                                        ):
                                            if index is not None:
                                                index_refresh(
                                                    target, old, had_sub
                                                )
                                lat = lat2 + l2_latency
                            # copy_fill inline (L2 → L1).
                            line = new_line(CacheLine)
                            line.addr = addr
                            line.state = EXCLUSIVE
                            line._dirty = False
                            line.token = source.token
                            line.eid = source.eid
                            line.owner = None
                            sub = source.sub_eids
                            line.sub_eids = list(sub) if sub is not None else None
                            line._home = None
                            cache_set = l1_sets[(addr >> l1_shift) & l1_mask]
                            cache_set.insert(0, line)
                            l1_tags[addr] = line
                            line._home = l1
                            # (copy_fill lines are clean: no dirty insert)
                            if len(cache_set) > l1_assoc:
                                victim = cache_set.pop()
                                vaddr = victim.addr
                                del l1_tags[vaddr]
                                victim._home = None
                                d_l1_ev += 1
                                if victim._dirty:
                                    del l1_dirty[vaddr]
                                    # _merge_down into L2
                                    target = l2_tags.get(vaddr)
                                    if target is None:
                                        raise SimulationError(
                                            "inclusion violated: L1 victim %#x "
                                            "absent from l2" % vaddr
                                        )
                                    # _merge_lines inline: target lives in the
                                    # L2 — dirty dict live, no EID index on
                                    # private L2s.
                                    target.token = victim.token
                                    if not target._dirty:
                                        target._dirty = True
                                        l2_dirty[vaddr] = target
                                    target.eid = victim.eid
                                    if victim.sub_eids is not None:
                                        target.sub_eids = list(victim.sub_eids)
                            fill_lat = lat + l1_latency
                            if w:
                                wait = int(fill_lat * smf) + fstall
                            else:
                                wait = fill_lat + fstall
                        # ==== the store continuation of access() ====
                        if w:
                            if smode == 2 and line.eid == sys_eid:
                                silent += 1
                            elif smode:
                                if silent:
                                    sink_bulk(silent)
                                    silent = 0
                                channel.read_busy_until = rbu
                                channel.write_backlog = wbk
                                channel.backlog_updated_at = bua
                                ch_live = False
                                wait += sink_on_store(cid, line, cycle)
                                rbu = channel.read_busy_until
                                wbk = channel.write_backlog
                                bua = channel.backlog_updated_at
                                ch_live = True
                            # smode 0: every store is silent.
                            line.token = token
                            if not line._dirty:
                                line._dirty = True
                                l1_dirty[addr] = line
                            line.state = modified
                            d_stores += 1
                            if track:
                                arch_image[addr] = token
                        else:
                            d_loads += 1
                        ccycle = cycle + wait
                        mstall += wait
                        if ccycle > budget:
                            # Horizon crossed: this reference still retires
                            # (the heap loop pushes after it), but the turn
                            # ends here — no tail, no next reference.
                            i += 1
                            break
                        # ==== run-coalescing tail ====
                        # The rest of a same-line run costs one hit latency
                        # a reference when every repeat is provably an L1
                        # hit that changes nothing step by step: repeated
                        # stores also need a dirty, MODIFIED line and a
                        # scheme that batches them as no-ops (counted as
                        # silent when the line carries the filter EID, else
                        # ``sink.on_store_repeat``). Only the run's last
                        # token lands: nothing runs between the coalesced
                        # stores. Otherwise the tail replays one by one.
                        run_end = run_ends[i]
                        if run_end > seg_end:
                            run_end = seg_end
                        i += 1
                        if run_end > i:
                            k = run_end - i
                            # The clock after the whole tail: each
                            # reference costs its gap plus the hit latency.
                            cend = ccycle + (cum[run_end - 1] - cum[i - 1]) + k * lat1
                            if cend > budget:
                                # The horizon falls inside the tail: a tail
                                # reference runs iff the clock before it is
                                # within the horizon, and the first one past
                                # it is included — the per-reference rule.
                                run_end = i
                                cend = ccycle
                                while cend <= budget:
                                    cend += cum[run_end] - cum[run_end - 1] + lat1
                                    run_end += 1
                                k = run_end - i
                            kw = wcum[run_end - 1] - wcum[i - 1]
                            if kw:
                                # The head access just made ``line`` resident
                                # and MRU (fills insert at the front, hits
                                # move to it, and no scheme callback evicts
                                # L1 lines), so the MRU probe is provably
                                # true and skipped; the dirty/MODIFIED guard
                                # is real — the head may have been a load.
                                ok = False
                                if line._dirty and line.state == modified:
                                    if smode == 0:
                                        ok = True
                                    elif smode == 2:
                                        if line.eid == sys_eid:
                                            silent += kw
                                            ok = True
                                    else:
                                        channel.read_busy_until = rbu
                                        channel.write_backlog = wbk
                                        channel.backlog_updated_at = bua
                                        ch_live = False
                                        ok = (
                                            sink_repeat(cid, line, kw, ccycle)
                                            is not None
                                        )
                                        rbu = channel.read_busy_until
                                        wbk = channel.write_backlog
                                        bua = channel.backlog_updated_at
                                        ch_live = True
                                if not ok:
                                    continue
                                last_token = ntok + kw - 1
                                line.token = last_token
                                d_stores += kw
                                d_l1_hits += k
                                d_loads += k - kw
                                ntok += kw
                                if track:
                                    arch_image[addr] = last_token
                            else:
                                d_l1_hits += k
                                d_loads += k
                            wait = k * l1_latency
                            ccycle = cend
                            mstall += wait
                            i = run_end
                            if ccycle > budget:
                                break
                    if i < seg_end:
                        # Horizon crossed mid-segment: switch cores (above).
                        continue
                    # ==== segment end ====
                    # The span is done, or the running core just retired
                    # the reference that crosses the boundary or ends its
                    # chunk: write back everything the caller may read.
                    if silent:
                        sink_bulk(silent)
                        silent = 0
                    channel.read_busy_until = rbu
                    channel.write_backlog = wbk
                    channel.backlog_updated_at = bua
                    core.cycle = ccycle
                    core.mem_stall_cycles = mstall
                    system._next_token = ntok
                    clean = True
                    cpos[cid] = i
                    turns.cid = cid
                    system.total_instructions = boundary - climit + cum[i - 1]
                    boundary = yield turns.done + sum(cpos)
                    # The caller may have fired an epoch (ACS traffic,
                    # stop-the-world stalls, a new SystemEID) or loaded
                    # the core's next chunk: reload what it can move.
                    ntok = system._next_token
                    rbu = channel.read_busy_until
                    wbk = channel.write_backlog
                    bua = channel.backlog_updated_at
                    ccycle = core.cycle
                    mstall = core.mem_stall_cycles
                    room = boundary - system.total_instructions
                    smode, sys_eid = _store_mode(store_filter())
                    if bindings[cid] is None:
                        push = 0
                    else:
                        push = 2
                        clean = False
            finally:
                if not clean:
                    # A CrashSignal escaped mid-reference: leave the exact
                    # scalar crash-time state.
                    if ch_live:
                        channel.read_busy_until = rbu
                        channel.write_backlog = wbk
                        channel.backlog_updated_at = bua
                    core.cycle = ccycle
                    core.mem_stall_cycles = mstall
                    system._next_token = ntok
                    cpos[cid] = i
                    turns.cid = cid
                    system.total_instructions = (
                        boundary - climit + (cum[i - 1] if i else 0)
                    )
                if silent:
                    sink_bulk(silent)
                # The stat deltas have no mid-run readers: they flush
                # exactly once — here — however the generator ends.
                if d_l1_hits:
                    s_l1_hits.value += d_l1_hits
                if d_loads:
                    s_loads.value += d_loads
                if d_stores:
                    s_stores.value += d_stores
                if d_l1_miss:
                    s_l1_miss.value += d_l1_miss
                if d_l2_hits:
                    s_l2_hits.value += d_l2_hits
                if d_l2_miss:
                    s_l2_miss.value += d_l2_miss
                if d_llc_hits:
                    s_llc_hits.value += d_llc_hits
                if d_llc_miss:
                    s_llc_miss.value += d_llc_miss
                if d_llc_dirty:
                    s_llc_dirty.value += d_llc_dirty
                if d_llc_clean:
                    s_llc_clean.value += d_llc_clean
                if d_l1_ev:
                    s_l1_ev.value += d_l1_ev
                if d_l2_ev:
                    s_l2_ev.value += d_l2_ev
                if d_llc_ev:
                    s_llc_ev.value += d_llc_ev
                if d_fills:
                    s_fills.value += d_fills
                if d_iops_dr:
                    s_iops_dr.value += d_iops_dr
                if d_bytes_r:
                    s_bytes_r.value += d_bytes_r

        return types.SimpleNamespace(turn_gen=turn_gen)
