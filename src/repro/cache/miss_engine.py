"""Multi-core miss-chain engine: the cores' turns as one fused loop.

In the reference loop every reference runs ``CacheHierarchy.access``,
and one heap operation per reference picks the next core. On several
cores the fast engine replaces both with a **drain**: a single
generator that runs the cores' references in the heap loop's order and
switches cores inline. It keeps only what is its own:

* the turn/horizon loop (below);
* the L1 hit, inline: a tag probe and an LRU touch;
* the store continuation of ``access``: the token, the dirty bit, the
  MODIFIED state and the scheme's ``on_store``;
* run coalescing: the rest of a same-line run of L1 hits retires in
  O(1);
* silent-store counting: under an EID ``vector_store_filter()``, a
  store to a line tagged with that EID is scheme-silent, so the drain
  only counts it and hands the count to ``on_store_bulk`` before the
  next out-of-line ``on_store`` and at every yield.

An L1 miss calls the hierarchy's own chain,
``CacheHierarchy._fill_to_l1``: the L2, LLC and NVM fills, victim
selection, back-invalidation and the scheme's ``fill_token`` and
``write_back``, with the hierarchy counting its own stats. Scheme
semantics are the scheme's own methods too: ``on_store``,
``on_store_repeat`` and ``on_store_bulk`` run at the scalar call sites.
So each cache rule and each scheme rule is defined once, and every
config runs here, whatever its NVM channels, DRAM cache or eviction
sink. (One core needs none of this: its cache outcome is scheme-free
and replayed from a trajectory, see :mod:`repro.cache.trajectory`.)

Deferred bookkeeping:

* the drain's own counters (``l1.hits``, ``loads``, ``stores``)
  accumulate in locals and land once, when the generator ends
  (delta-commutative with anything an out-of-line callee bumps);
* ``core.cycle`` / ``mem_stall_cycles`` / ``system._next_token`` live in
  locals and are written back at every core switch and yield.

**Bit-identity argument.** The drain visits references in exactly the
scalar order, and every shared structure changes in the scalar code
itself: the inline L1 hit and store continuation mirror ``access`` line
for line, and everything else is the scalar call. Deferral is
restricted to state nothing reads mid-drain, and every deferral is
forced down before any point that could observe it:

* the silent-store count lands through ``on_store_bulk`` before every
  out-of-line ``on_store`` (so each call sees the scheme state the
  scalar loop leaves) and at every yield;
* counters/cycles/tokens flush in a ``finally``, so even a mid-drain
  ``CrashSignal`` leaves exactly the scalar crash-time values.

**The turn order.** The drain keeps the order of the reference heap loop
(``Simulation._run_reference``): it pops the earliest ``cycle * n_cores +
core`` key (the heap loop's ``(cycle, core)`` tuple as one int) and runs
that core while its clock stays within the *horizon* — the smallest
other key, which no other core can move while this one runs. The first
reference past the horizon still retires; then the loop writes back the
core's clock, ``heappushpop``s its key, and unpacks the next core's L1
and trace columns (:meth:`MissChainEngine.bind`) in place. Everything
the cores share (token counter, silent-store count, counter deltas)
stays in locals across the switch. The loop yields to its caller
(``Simulation._run_multi_core_drain``) only where the running core
retires the reference that crosses the next epoch or crash boundary, or
the last reference of its chunk.

A scheme needs nothing to run on the drain: every hook it overrides is
called where the reference loop calls it, so a new scheme is
automatically exact.
"""

import heapq
import types
from bisect import bisect_left

from repro.cache.line import LineState

#: The horizon of a turn no other core can end: the last core still
#: running.
_NO_HORIZON = 1 << 62


def _store_mode(sfilter):
    """The drain's store dispatch for a ``vector_store_filter()`` value:
    ``(0, None)`` every store is scheme-silent, ``(1, None)`` every store
    calls ``sink.on_store``, ``(2, eid)`` a store to a line tagged ``eid``
    is silent and any other store calls ``sink.on_store``. The replay
    (``Simulation._run_replay``) dispatches its stores the same way."""
    # ``is True``/``is False``: an EID of 0 or 1 must not be mistaken for
    # the booleans.
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
        self.hierarchy = sim.hierarchy
        self.system = sim.system
        self.cores = sim.cores

    def bind(self, core_id, chunk):
        """One core's switch-in tuple: the core, its private L1 and the
        replay columns of its current chunk, in the order the drain loop
        unpacks them."""
        l1 = self.hierarchy._l1[core_id]
        gaps, addrs, writes, cum, run_ends, wcum = chunk.lists
        return (
            self.cores[core_id], l1._tags, l1._sets, l1._dirty_lines,
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
        l1 = hierarchy._l1[0]
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
            system=system,
            track=system.track_reference,
            arch_image=system.arch_image,
            modified=LineState.MODIFIED,
            fill=hierarchy._fill_to_l1,
            smf=hierarchy.store_miss_factor,
            # The running core and its L1: every turn rebinds them,
            # together with the core's chunk columns. The L1 geometry is
            # every core's.
            cid=0,
            core=self.cores[0],
            l1_tags=l1._tags,
            l1_sets=l1._sets,
            l1_dirty=l1._dirty_lines,
            l1_shift=l1._line_shift,
            l1_mask=l1._set_mask,
            l1_latency=l1.hit_latency,
            lat1=l1.hit_latency - 1,
            # the scheme's own hooks, called at the scalar call sites
            sink_on_store=sink.on_store,
            sink_repeat=sink.on_store_repeat,
            sink_bulk=sink.on_store_bulk,
            # the drain's own counters (deferred via local deltas,
            # flushed in finally)
            s_l1_hits=hierarchy._l1_hits,
            s_loads=hierarchy._loads,
            s_stores=hierarchy._stores,
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
            d_l1_hits = d_loads = d_stores = 0
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
                        core, l1_tags, l1_sets, l1_dirty,
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
                            # The hierarchy's own miss chain: L2, LLC and
                            # NVM fills, victims, back-invalidation and
                            # the scheme's write-backs, with its counters.
                            line, lat, fstall = fill(cid, addr, cycle)
                            if w:
                                wait = int(lat * smf) + fstall
                            else:
                                wait = lat + fstall
                        # ==== the store continuation of access() ====
                        if w:
                            if smode == 2 and line.eid == sys_eid:
                                silent += 1
                            elif smode:
                                if silent:
                                    sink_bulk(silent)
                                    silent = 0
                                wait += sink_on_store(cid, line, cycle)
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
                                        ok = (
                                            sink_repeat(cid, line, kw, ccycle)
                                            is not None
                                        )
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
                s_l1_hits.value += d_l1_hits
                s_loads.value += d_loads
                s_stores.value += d_stores

        return types.SimpleNamespace(turn_gen=turn_gen)
