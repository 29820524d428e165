"""Multi-core miss-chain engine: the cores' turns as one fused loop.

In the reference loop every reference runs ``CacheHierarchy.access``,
and one heap operation per reference picks the next core. On several
cores the fast engine replaces both with a **drain**: a single
generator that runs the cores' references in the heap loop's order and
switches cores inline. Each reference is one step of three parts:

* the L1 hit, inline: a tag probe and an LRU touch;
* an L1 miss: the hierarchy's own chain, ``CacheHierarchy._fill_to_l1``
  (the L2, LLC and NVM fills, victim selection, back-invalidation and
  the scheme's ``fill_token`` and ``write_back``, with the hierarchy
  counting its own stats);
* a store: the continuation of ``access`` — the scheme's ``on_store``
  at the access's cycle, then the token, the dirty bit and the
  MODIFIED state.

So each cache rule and each scheme rule is defined once, every store
runs the scheme's own ``on_store``, and every config runs here,
whatever its NVM channels, DRAM cache or eviction sink. (One core needs
none of this: its cache outcome is scheme-free and replayed from a
trajectory, see :mod:`repro.cache.trajectory`.)

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
restricted to state nothing reads mid-drain, and counters, cycles and
tokens flush in a ``finally``, so even a mid-drain ``CrashSignal``
leaves exactly the scalar crash-time values.

**The turn order.** The drain keeps the order of the reference heap loop
(``Simulation._run_reference``): it pops the earliest ``cycle * n_cores +
core`` key (the heap loop's ``(cycle, core)`` tuple as one int) and runs
that core while its clock stays within the *horizon* — the smallest
other key, which no other core can move while this one runs. The first
reference past the horizon still retires; then the loop writes back the
core's clock, ``heappushpop``s its key, and unpacks the next core's L1
and trace columns (:meth:`MissChainEngine.bind`) in place. Everything
the cores share (token counter, counter deltas) stays in locals across
the switch. The loop yields to its caller
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
        gaps, addrs, writes, cum = chunk.lists
        return (
            self.cores[core_id], l1._tags, l1._sets, l1._dirty_lines,
            gaps, addrs, writes, cum, len(gaps),
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

        def turn_gen(
            i,
            turns,
            boundary,
            # Default-arg binding: the body runs per reference, and
            # locals beat closure derefs.
            bisect=bisect_left,
            heappop=heapq.heappop,
            heappushpop=heapq.heappushpop,
            system=system,
            track=system.track_reference,
            arch_image=system.arch_image,
            modified=LineState.MODIFIED,
            fill=hierarchy._fill_to_l1,
            smf=hierarchy.store_miss_factor,
            sink_on_store=hierarchy.sink.on_store,
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
            # the drain's own counters (deferred via local deltas,
            # flushed in finally)
            s_l1_hits=hierarchy._l1_hits,
            s_loads=hierarchy._loads,
            s_stores=hierarchy._stores,
        ):
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
                        gaps, addrs, writes, cum, n,
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
                    # ``i`` stays on the reference in flight until it
                    # retires: a CrashSignal leaves it there.
                    for i in range(i, seg_end):
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
                            wait += sink_on_store(cid, line, cycle)
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
                            # ends here.
                            break
                    i += 1
                    if i < seg_end:
                        # Horizon crossed mid-segment: switch cores (above).
                        continue
                    # ==== segment end ====
                    # The span is done, or the running core just retired
                    # the reference that crosses the boundary or ends its
                    # chunk: write back everything the caller may read.
                    core.cycle = ccycle
                    core.mem_stall_cycles = mstall
                    system._next_token = ntok
                    clean = True
                    cpos[cid] = i
                    turns.cid = cid
                    system.total_instructions = boundary - climit + cum[i - 1]
                    boundary = yield turns.done + sum(cpos)
                    # The caller may have fired an epoch (ACS traffic,
                    # stop-the-world stalls) or loaded the core's next
                    # chunk: reload what it can move.
                    ntok = system._next_token
                    ccycle = core.cycle
                    mstall = core.mem_stall_cycles
                    room = boundary - system.total_instructions
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
                # The stat deltas have no mid-run readers: they flush
                # exactly once — here — however the generator ends.
                s_l1_hits.value += d_l1_hits
                s_loads.value += d_loads
                s_stores.value += d_stores

        return types.SimpleNamespace(turn_gen=turn_gen)
