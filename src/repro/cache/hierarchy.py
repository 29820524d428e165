"""Multi-core, inclusive, write-back cache hierarchy.

Structure (Table IV of the paper): per-core private L1 and L2, one shared
LLC sized per-core times the core count. Inclusion is strict (L1 ⊆ L2 ⊆
LLC), so an LLC eviction back-invalidates the private copies, pulling any
fresher private data into the victim before it is written back.

Crash-consistency schemes attach as an :class:`EvictionSink`:

* ``write_back(line_addr, token, now)`` — every dirty LLC eviction and
  every flush write is routed through the scheme, because schemes differ in
  what a write-back means (in place for undo schemes, into a redo buffer
  for redo schemes, bloom-checked for PiCL).
* ``fill_token(line_addr)`` — redo schemes snoop their buffer on fills.
* ``on_store(core, line, now)`` — called with the line *before* the store's
  token is applied, which is where PiCL detects cross-epoch stores and
  captures undo data.

Timing: on-chip operations (tag checks, snoops, scans) are charged only
their hit latencies; the paper's overheads all come from NVM traffic, and
"stores are not on the critical path as they are first absorbed by the
store-buffer", so stores are charged a configurable fraction of their miss
latency.
"""

import os

from repro.common.errors import SimulationError
from repro.common.stats import StatCounters
from repro.cache.cache import SetAssocCache
from repro.cache.eid_index import EidIndex
from repro.cache.line import CacheLine, LineState
from repro.cache.vector_mirror import ROW_WAYS, L1TagMirror


class EvictionSink:
    """Default sink: write everything in place (the Ideal-NVM behaviour)."""

    def __init__(self, controller):
        self.controller = controller

    def write_back(self, line_addr, token, now):
        """Default sink behaviour: write the line in place."""
        _completion, stall = self.controller.writeback(line_addr, token, now)
        return stall

    def fill_token(self, line_addr):
        """Default sink behaviour: no redo buffer to snoop."""
        return None

    def on_store(self, core, line, now):
        """Default sink behaviour: stores need no extra work."""
        return 0

    def on_store_repeat(self, core, line, count, now):
        """Batch hook for ``count`` repeated stores that are scheme no-ops.

        Contract (see CacheHierarchy.access_repeat): return 0 after
        applying bookkeeping that is *provably identical* to ``count``
        consecutive ``on_store`` calls on this line — which also means no
        stall and no state change a later access could observe differently.
        Return None (without mutating anything) to make the caller replay
        the stores one by one through ``on_store``.
        """
        return 0

    def vector_store_filter(self):
        """Which L1 store hits the columnar interpreter may bulk-apply.

        Returns ``True`` (every store hit is scheme-silent — this sink's
        ``on_store`` is a pure no-op), ``False`` (no store may leave the
        exact path), or an EID: a store hit is scheme-silent exactly when
        the line's mirrored EID equals it (PiCL's same-epoch stores).
        Re-evaluated per epoch segment, never cached across boundaries.
        """
        return True

    def on_store_bulk(self, count):
        """Aggregate bookkeeping for ``count`` stores the columnar path
        bulk-applied after :meth:`vector_store_filter` classified each of
        them scheme-silent. Must be exactly what ``count`` consecutive
        ``on_store`` calls would have done to scheme state (for this sink:
        nothing)."""


class CacheHierarchy:
    """Private L1/L2 per core plus a shared, inclusive LLC."""

    def __init__(
        self,
        controller,
        n_cores=1,
        l1_size=32 * 1024,
        l1_assoc=4,
        l1_latency=1,
        l2_size=256 * 1024,
        l2_assoc=8,
        l2_latency=4,
        llc_size_per_core=2 * 1024 * 1024,
        llc_assoc=8,
        llc_latency=30,
        line_size=64,
        store_miss_factor=0.5,
        stats=None,
    ):
        self.controller = controller
        self.n_cores = n_cores
        self.line_size = line_size
        self.store_miss_factor = store_miss_factor
        self.stats = stats if stats is not None else StatCounters()
        self._l1 = [
            SetAssocCache("l1", l1_size, l1_assoc, line_size, l1_latency, self.stats)
            for _ in range(n_cores)
        ]
        self._l2 = [
            SetAssocCache("l2", l2_size, l2_assoc, line_size, l2_latency, self.stats)
            for _ in range(n_cores)
        ]
        self.llc = SetAssocCache(
            "llc",
            llc_size_per_core * n_cores,
            llc_assoc,
            line_size,
            llc_latency,
            self.stats,
        )
        # The LLC carries the EID-array analogue (see repro.cache.eid_index);
        # private caches only need dirty-line tracking. Attached here, not in
        # SetAssocCache, because only the shared level is ever ACS-scanned.
        self.llc.eid_index = EidIndex()
        # The columnar interpreter classifies whole epoch segments against a
        # numpy mirror of each core's L1 tags/EIDs (see
        # repro.cache.vector_mirror). L1s are private, so the mirror
        # generalizes per core: the single-core loop reads core 0's, the
        # horizon-batched multi-core loop reads the running core's.
        # REPRO_VECTOR=0 drops every mirror and restores the scalar loops;
        # REPRO_VECTOR_MC=0 drops them only for multi-core systems (the
        # dedicated escape hatch the service layer pins on fleet workers).
        # An L1 wider than one mirror row (ROW_WAYS) gets none either.
        if (
            os.environ.get("REPRO_VECTOR", "1") != "0"
            and (n_cores == 1 or os.environ.get("REPRO_VECTOR_MC", "1") != "0")
            and l1_assoc <= ROW_WAYS
        ):
            for l1 in self._l1:
                l1._vec = L1TagMirror(
                    l1.n_sets, l1.assoc, l1._line_shift, l1._set_mask
                )
            # The batched miss-chain engine's *profiling* mode additionally
            # mirrors L2/LLC tags+EIDs+dirty (LevelMirror) so residual
            # misses can be classified per level before mutation. Only
            # attached on request: production drains re-probe the live
            # dicts anyway, and an attached mirror taxes every inlined
            # fill/evict site with queue appends.
            if os.environ.get("REPRO_MISS_PROFILE", "0") == "1":
                for l2 in self._l2:
                    l2.attach_mirror()
                self.llc.attach_mirror()
        self.sink = EvictionSink(controller)
        #: Mirrors SetAssocCache._brute_scan: run the original full-sweep
        #: sync paths as a differential oracle (REPRO_BRUTE_SCAN=1).
        self._brute_scan = self.llc._brute_scan
        #: Armed crash plan (None outside fault injection — see repro.fault).
        self.fault_plan = None
        # Pre-resolved counters for the per-access hot path.
        self._loads = self.stats.slot("loads")
        self._stores = self.stats.slot("stores")
        self._l1_hits = self.stats.slot("l1.hits")
        self._l1_misses = self.stats.slot("l1.misses")
        self._l2_hits = self.stats.slot("l2.hits")
        self._l2_misses = self.stats.slot("l2.misses")
        self._llc_hits = self.stats.slot("llc.hits")
        self._llc_misses = self.stats.slot("llc.misses")
        self._llc_dirty_evictions = self.stats.slot("llc.dirty_evictions")
        self._llc_clean_evictions = self.stats.slot("llc.clean_evictions")
        self._llc_snoops = self.stats.slot("llc.snoops")

    def attach_sink(self, sink):
        """Attach the crash-consistency scheme's eviction sink."""
        self.sink = sink

    # ------------------------------------------------------------------
    # the demand path
    # ------------------------------------------------------------------

    def access(self, core, line_addr, is_write, token, now):
        """Perform one load or store; returns cycles the core is blocked."""
        l1 = self._l1[core]
        # L1-hit fast path: probe the tag index and touch the LRU inline —
        # by far the most common outcome of an access.
        line = l1._tags.get(line_addr)
        if line is not None:
            cache_set = l1._sets[(line_addr >> l1._line_shift) & l1._set_mask]
            if cache_set[0] is not line:
                cache_set.remove(line)
                cache_set.insert(0, line)
            self._l1_hits.value += 1
            if not is_write:
                self._loads.value += 1
                return l1.hit_latency
            wait = l1.hit_latency
        else:
            line, fill_latency, stall = self._fill_to_l1(core, line_addr, now)
            if not is_write:
                self._loads.value += 1
                return fill_latency + stall
            wait = int(fill_latency * self.store_miss_factor) + stall
        wait += self.sink.on_store(core, line, now)
        line.token = token
        # Inlined ``line.dirty = True`` (see CacheLine.dirty): stores are
        # hot enough that the property call shows up in profiles.
        if not line._dirty:
            line._dirty = True
            home = line._home
            if home is not None:
                home._dirty_lines[line_addr] = line
        line.state = LineState.MODIFIED
        vec = l1._vec
        if vec is not None:
            # The scheme's on_store may have retagged the line (PiCL's
            # cross-epoch store); queue the EID refresh for the next sync.
            vec.eidq.append(line)
        self._stores.value += 1
        return wait

    def access_repeat(self, core, line_addr, n_reads, n_writes, last_token, now):
        """Coalesce a run of repeated accesses to one line; None = replay.

        The single-core interpreter calls this for the tail of a same-line
        run after the head reference went through :meth:`access` exactly.
        The fast path is taken only when every tail access is provably an
        L1 hit that changes nothing observable step by step:

        * the line is resident in L1 *and already MRU*, so LRU order is
          untouched (the head access made it MRU; a concurrent core could
          have back-invalidated it, which the probe catches);
        * reads then only bump hit/load counters and cost ``hit_latency``;
        * writes additionally require the line to be dirty and MODIFIED
          (so ``dirty``/``state`` assignments are no-ops) and the scheme
          to batch them as no-ops via ``sink.on_store_repeat`` — PiCL's
          same-epoch stores, a tracked table entry for the redo schemes.
          ``last_token`` (the run's final store token) is then applied;
          intermediate tokens are unobservable because nothing else runs
          between the coalesced stores.

        Returns the total blocked cycles (``(n_reads + n_writes) *
        hit_latency``), or None when the caller must replay the tail
        through the exact path. Nothing is mutated on the None path.
        """
        l1 = self._l1[core]
        # Inlined SetAssocCache.mru_lookup: resident *and* already MRU.
        line = l1._tags.get(line_addr)
        if line is None:
            return None
        if l1._sets[(line_addr >> l1._line_shift) & l1._set_mask][0] is not line:
            return None
        if n_writes:
            if not line._dirty or line.state != LineState.MODIFIED:
                return None
            if self.sink.on_store_repeat(core, line, n_writes, now) is None:
                return None
            line.token = last_token
            self._stores.value += n_writes
        self._l1_hits.value += n_reads + n_writes
        self._loads.value += n_reads
        return (n_reads + n_writes) * l1.hit_latency

    def _fill_to_l1(self, core, line_addr, now):
        """Bring a line into the core's L1; returns (line, latency, stall)."""
        self._l1_misses.value += 1
        l2 = self._l2[core]
        stall = 0
        # Inline tag probe + LRU touch (same shape as the L1 fast path).
        source = l2._tags.get(line_addr)
        if source is not None:
            cache_set = l2._sets[(line_addr >> l2._line_shift) & l2._set_mask]
            if cache_set[0] is not source:
                cache_set.remove(source)
                cache_set.insert(0, source)
            latency = l2.hit_latency
            self._l2_hits.value += 1
        else:
            self._l2_misses.value += 1
            source, latency, stall = self._fill_to_l2(core, line_addr, now)
        line = source.copy_fill(line_addr)
        l1 = self._l1[core]
        # Inlined SetAssocCache.insert (this runs on every L1 miss). The
        # dirty dict is updated at pop time, before any merge can flip
        # the victim's dirty bit — same order as the out-of-line insert.
        cache_set = l1._sets[(line_addr >> l1._line_shift) & l1._set_mask]
        cache_set.insert(0, line)
        l1._tags[line_addr] = line
        line._home = l1
        if line._dirty:
            l1._dirty_lines[line_addr] = line
        vec = l1._vec
        if vec is not None:
            vec.pending.append(line)
        if len(cache_set) > l1.assoc:
            victim = cache_set.pop()
            del l1._tags[victim.addr]
            victim._home = None
            if vec is not None:
                # The eager removed log guards in-flight windows; the slot
                # queue is drained at the next sync.
                vec.removed.append(victim.addr)
                vec.evictq.append(victim)
            l1._evictions.value += 1
            if victim._dirty:
                del l1._dirty_lines[victim.addr]
                self._merge_down(victim, l2, line_addr_level="l2")
        return line, latency + l1.hit_latency, stall

    def _fill_to_l2(self, core, line_addr, now):
        """Bring a line into the core's L2; returns (line, latency, stall)."""
        llc = self.llc
        stall = 0
        # Inline tag probe + LRU touch (same shape as the L1 fast path).
        llc_line = llc._tags.get(line_addr)
        if llc_line is not None:
            cache_set = llc._sets[(line_addr >> llc._line_shift) & llc._set_mask]
            if cache_set[0] is not llc_line:
                cache_set.remove(llc_line)
                cache_set.insert(0, llc_line)
            latency = llc.hit_latency
            self._llc_hits.value += 1
            if llc_line.owner is not None and llc_line.owner != core:
                self._snoop_invalidate(llc_line)
        else:
            self._llc_misses.value += 1
            override = self.sink.fill_token(line_addr)
            mem_latency, token = self.controller.demand_fill(line_addr, now)
            if override is not None:
                token = override
                self.stats.add("llc.fills_from_log")
            llc_line = CacheLine(line_addr, token=token)
            stall += self._insert_llc(llc_line, now)
            latency = llc.hit_latency + mem_latency
        llc_line.owner = core
        line = llc_line.copy_fill(line_addr)
        l2 = self._l2[core]
        # Inlined SetAssocCache.insert; dirty dict updated at pop time,
        # before the L1 merge can re-dirty the victim (see _fill_to_l1).
        cache_set = l2._sets[(line_addr >> l2._line_shift) & l2._set_mask]
        cache_set.insert(0, line)
        l2._tags[line_addr] = line
        line._home = l2
        if line._dirty:
            l2._dirty_lines[line_addr] = line
        l2_vec = l2._vec
        if l2_vec is not None:
            l2_vec.pending.append(line)
        if len(cache_set) > l2.assoc:
            victim = cache_set.pop()
            del l2._tags[victim.addr]
            victim._home = None
            if victim._dirty:
                del l2._dirty_lines[victim.addr]
            if l2_vec is not None:
                l2_vec.removed.append(victim.addr)
                l2_vec.evictq.append(victim)
            l2._evictions.value += 1
            dropped = self._l1[core].remove(victim.addr)
            if dropped is not None and dropped._dirty:
                self._merge_lines(victim, dropped)
            if victim._dirty:
                target = llc._tags.get(victim.addr)
                if target is None:
                    raise SimulationError(
                        "inclusion violated: L2 victim %#x absent from LLC"
                        % victim.addr
                    )
                self._merge_lines(target, victim)
        return line, latency + l2.hit_latency, stall

    def _insert_llc(self, line, now):
        """Insert into the LLC, handling the victim; returns stall cycles."""
        llc = self.llc
        addr = line.addr
        # Inlined SetAssocCache.insert; the back-invalidation below may
        # fold fresher private data into the victim (flipping its dirty
        # bit and retagging it), so the dirty dict and EID index are
        # updated at pop time — once detached (``_home = None``), the
        # victim's later mutations no longer reach either structure.
        cache_set = llc._sets[(addr >> llc._line_shift) & llc._set_mask]
        cache_set.insert(0, line)
        llc._tags[addr] = line
        line._home = llc
        if line._dirty:
            llc._dirty_lines[addr] = line
        index = llc.eid_index
        if index is not None and (line.eid >= 0 or line.sub_eids is not None):
            index.add(line)
        llc_vec = llc._vec
        if llc_vec is not None:
            llc_vec.pending.append(line)
        if len(cache_set) <= llc.assoc:
            return 0
        victim = cache_set.pop()
        del llc._tags[victim.addr]
        victim._home = None
        if llc_vec is not None:
            llc_vec.removed.append(victim.addr)
            llc_vec.evictq.append(victim)
        if victim._dirty:
            del llc._dirty_lines[victim.addr]
        # Inlined EidIndex.discard: under PiCL nearly every victim is
        # tagged, so this runs on every LLC eviction.
        if index is not None:
            if victim.sub_eids is not None:
                index.sub.pop(victim.addr, None)
            elif victim.eid >= 0:
                bucket = index.buckets.get(victim.eid)
                if bucket is not None:
                    bucket.pop(victim.addr, None)
                    if not bucket:
                        del index.buckets[victim.eid]
        llc._evictions.value += 1
        self._back_invalidate(victim)
        if victim._dirty:
            self._llc_dirty_evictions.value += 1
            if self.fault_plan is not None:
                # Crash window: the victim is evicted (private copies
                # folded in, SRAM contents doomed) but the scheme's
                # bloom-guarded log write / write-back has not happened.
                self.fault_plan.notify("llc_eviction")
            return self.sink.write_back(victim.addr, victim.token, now)
        self._llc_clean_evictions.value += 1
        return 0

    # ------------------------------------------------------------------
    # coherence helpers
    # ------------------------------------------------------------------

    def _merge_lines(self, target, source):
        """Fold a dirty upper-level line into its lower-level copy.

        The merge can retag the target (the private copy carries the
        store's EID) or switch it to sub-block tracking, so when the
        target lives in an indexed cache its EID-index membership is
        re-homed afterwards. The guard is inlined — merges run on every
        dirty eviction, and the common cases (private target, unchanged
        EID) must not pay a call into the index.
        """
        target.token = source.token
        target.dirty = True
        old_eid = target.eid
        new_eid = source.eid
        old_had_sub = target.sub_eids is not None
        target.eid = new_eid
        if source.sub_eids is not None:
            target.sub_eids = list(source.sub_eids)
        if new_eid != old_eid or (target.sub_eids is not None and not old_had_sub):
            home = target._home
            if home is not None:
                if home.eid_index is not None:
                    home.eid_index.refresh(target, old_eid, old_had_sub)
                if home._vec is not None:
                    home._vec.eidq.append(target)

    def _merge_down(self, victim, lower_cache, line_addr_level):
        target = lower_cache.lookup(victim.addr, touch=False)
        if target is None:
            raise SimulationError(
                "inclusion violated: L1 victim %#x absent from %s"
                % (victim.addr, line_addr_level)
            )
        self._merge_lines(target, victim)

    def _back_invalidate(self, llc_victim):
        """Remove private copies of an LLC victim, folding in dirty data."""
        owner = llc_victim.owner
        if owner is None:
            return
        addr = llc_victim.addr
        # Inlined SetAssocCache.remove ×2: this runs on every LLC eviction
        # and the private copies are usually long gone, so the common case
        # is two dict probes and nothing else.
        l1 = self._l1[owner]
        l1_copy = l1._tags.pop(addr, None)
        if l1_copy is not None:
            l1._sets[(addr >> l1._line_shift) & l1._set_mask].remove(l1_copy)
            l1_copy._home = None
            if l1_copy._dirty:
                del l1._dirty_lines[addr]
            if l1._vec is not None:
                l1._vec.removed.append(addr)
                l1._vec.evictq.append(l1_copy)
        l2 = self._l2[owner]
        l2_copy = l2._tags.pop(addr, None)
        if l2_copy is not None:
            l2._sets[(addr >> l2._line_shift) & l2._set_mask].remove(l2_copy)
            l2_copy._home = None
            if l2_copy._dirty:
                del l2._dirty_lines[addr]
            if l2._vec is not None:
                l2._vec.removed.append(addr)
                l2._vec.evictq.append(l2_copy)
        # L1 holds the freshest data; fall back to L2.
        if l1_copy is not None and l1_copy._dirty:
            self._merge_lines(llc_victim, l1_copy)
        elif l2_copy is not None and l2_copy._dirty:
            self._merge_lines(llc_victim, l2_copy)
        llc_victim.owner = None

    def _snoop_invalidate(self, llc_line):
        """Another core touches a privately-held line: pull data, release."""
        self._back_invalidate(llc_line)
        self._llc_snoops.value += 1

    def _refresh_copy(self, copy, llc_line):
        """Make a private copy identical to the (now freshest) LLC line.

        Without this, a stale-but-valid L2 copy could later shadow the
        synced LLC data when the fresher L1 copy is silently dropped.
        """
        copy.token = llc_line.token
        copy.eid = llc_line.eid
        home = copy._home
        if home is not None and home._vec is not None:
            home._vec.eidq.append(copy)
        if llc_line.sub_eids is not None:
            copy.sub_eids = list(llc_line.sub_eids)
        copy.dirty = False

    def sync_private_line(self, line_addr):
        """Fold any dirty private copy of a line into the LLC (keep copies clean).

        Used by ACS ("if there are dirty private copies, they would have to
        be snooped and written back") and by full flushes.
        """
        llc_line = self.llc.lookup(line_addr, touch=False)
        if llc_line is None or llc_line.owner is None:
            return llc_line
        owner = llc_line.owner
        # L2 first, then L1: when both hold dirty copies the L1's data is
        # newer and must win the merge.
        copies = []
        for cache in (self._l2[owner], self._l1[owner]):
            copy = cache.lookup(line_addr, touch=False)
            if copy is None:
                continue
            copies.append(copy)
            if copy.dirty:
                self._merge_lines(llc_line, copy)
        for copy in copies:
            self._refresh_copy(copy, llc_line)
        return llc_line

    # ------------------------------------------------------------------
    # flush / scan support
    # ------------------------------------------------------------------

    def sync_all_private(self):
        """Fold every dirty private line into the LLC (before a full flush).

        L2 is folded before L1 so that when both levels hold dirty copies
        of a line, the L1's (newer) data wins; afterwards the private
        copies at the merged addresses are refreshed from the LLC data
        (see :meth:`_refresh_copy`).

        The indexed path walks only the private dirty dicts — O(dirty),
        not O(capacity) — and refreshes only copies at merged addresses.
        That matches the oracle's refresh-everything pass because a clean
        private copy at an unmerged address is already identical to its
        LLC line: merges happen only from the single owner's own copies,
        and every path that diverges an LLC line from its private copies
        (stores, merges, syncs) either dirties a private copy or refreshes
        them all (see sync_private_line), so _refresh_copy would be a
        no-op there. REPRO_BRUTE_SCAN=1 runs the original full sweep.
        """
        if self._brute_scan:
            for core in range(self.n_cores):
                for cache in (self._l2[core], self._l1[core]):
                    for line in cache.iter_lines():
                        if line.dirty:
                            target = self.llc.lookup(line.addr, touch=False)
                            if target is None:
                                raise SimulationError(
                                    "inclusion violated: private dirty %#x"
                                    " not in LLC" % line.addr
                                )
                            self._merge_lines(target, line)
            for core in range(self.n_cores):
                for cache in (self._l2[core], self._l1[core]):
                    for line in cache.iter_lines():
                        target = self.llc.lookup(line.addr, touch=False)
                        if target is not None:
                            self._refresh_copy(line, target)
            return
        llc_tags = self.llc._tags
        for core in range(self.n_cores):
            l2 = self._l2[core]
            l1 = self._l1[core]
            if not (l2._dirty_lines or l1._dirty_lines):
                continue
            synced = {}
            for cache in (l2, l1):
                for addr, line in list(cache._dirty_lines.items()):
                    target = llc_tags.get(addr)
                    if target is None:
                        raise SimulationError(
                            "inclusion violated: private dirty %#x not in LLC"
                            % addr
                        )
                    self._merge_lines(target, line)
                    synced[addr] = target
            for addr, target in synced.items():
                for cache in (l2, l1):
                    copy = cache._tags.get(addr)
                    if copy is not None:
                        self._refresh_copy(copy, target)

    def collect_dirty_lines(self):
        """Snoop everything down and list the dirty LLC lines.

        O(dirty): the sync walks the private dirty dicts and the listing
        reads the LLC's, in the brute-force sweep's exact visit order.
        """
        self.sync_all_private()
        return self.llc.dirty_lines()

    def dirty_line_count(self):
        """Count dirty lines system-wide (LLC view after an implicit sync)."""
        self.sync_all_private()
        return self.llc.dirty_count()

    def invalidate_all(self):
        """Power loss: all SRAM contents vanish."""
        for core in range(self.n_cores):
            self._l1[core].invalidate_all()
            self._l2[core].invalidate_all()
        self.llc.invalidate_all()

    def l1(self, core):
        """The given core's private L1 cache."""
        return self._l1[core]

    def l2(self, core):
        """The given core's private L2 cache."""
        return self._l2[core]
