"""Scheme-free cache trajectories: one tag pass, replayed by every scheme.

On one core the cache *outcome* of a trace does not depend on the
crash-consistency scheme. Replacement is LRU on the reference order
alone; schemes flush, scan, retag and clean lines, but none of them
moves a line in or out of a cache (a flush writes a dirty line back and
keeps it resident). So which level serves each reference, and which
line each fill evicts, are fixed by the trace and the cache geometry —
the Mattson et al. observation behind stack processing ("Evaluation
techniques for storage hierarchies", IBM Systems Journal, 1970).

:class:`Trajectory` is that outcome for one *trajectory key* (the trace
plus the geometry that decides residency: sizes, ways and line size —
not latencies, not epoch length). Every single-core run on the fast
engine replays one (``Simulation._run_replay``). It is tagged lazily:
the replay asks for chunk *k*'s codes just before it runs chunk *k*, and
the tag pass tags that very chunk object, carrying its per-set MRU lists
of line addresses from one chunk to the next. So a crashed run tags only
the chunks it reached, and a single-pass trace is read once.

A memoized trace's trajectories are owned by the trace memo
(:func:`repro.trace.synthetic.make_trace`): each memo entry keeps one
per geometry, and it lives as long as its entry. It keeps every tagged
chunk, so every later run of the trace on that geometry, whatever its
scheme, replays those chunks and tags on from where the furthest run
stopped, and it drops its tag-pass state once a replay reaches the
trace's end. A single-pass or recorded trace keeps nothing.

Hits dominate most traces, so the pass classifies references at once
against a numpy index of the L1's resident lines, which keeps the L1's
LRU order as last-touch stamps (:class:`~repro.cache.vector_mirror.
TagMirror`): an all-hit window is one gather and one scatter. From a
miss it steps a burst of same-line run heads one by one on per-set MRU
lists (a repeat of the line just referenced is an L1 hit that moves
nothing); the window grows while prefixes reach its end and the burst
grows while they come up short, so a miss-dense trace pays almost
nothing for the windows. Per reference it records one byte:

* bits 0-1 — the level that served it: 0 L1 hit, 1 L2 hit, 2 LLC hit,
  3 LLC miss (an NVM fill);
* bit 2 — the L1 fill evicted a line;
* bit 3 — the L2 fill evicted a line, whose address is the next entry of
  the chunk's L2-victim column.

LLC victims need no column: the replay keeps the LLC's own MRU lists
(ACS and flushes read them for their write order), and those are
touched only by the references that reach the LLC, which the replay
visits anyway, so its LRU pop is the victim.

:class:`PrivateCopies` is the replay's private-cache state. On one core
with strict inclusion the private L1/L2 pair of a line behaves as one
record: the newest private data (the L1 copy when there is one, else the
L2 copy) and whether it is newer than the LLC. Every path that moves
private data down — an L2 eviction (which takes the L1 copy with it), an
LLC eviction's back-invalidation, a sync — folds exactly that newest
dirty copy into the LLC line, and an L1 eviction only moves it from one
private level to the other. So the replay keeps one
:class:`~repro.cache.line.CacheLine` per line resident in L2, hands it to
the scheme's ``on_store`` as the stored line, and answers the
hierarchy's ``_back_invalidate`` (an LLC eviction) and its
``sync_all_private`` / ``sync_private_line`` (which is what
``collect_dirty_lines`` and the ACS engine call) from it.
"""

import zlib

import numpy as np

from repro.cache.vector_mirror import TagMirror
from repro.common.errors import ConfigurationError, SimulationError

#: Level codes (bits 0-1 of a trajectory byte).
L1_HIT, L2_HIT, LLC_HIT, LLC_MISS = 0, 1, 2, 3
#: The level bits, the L1-eviction flag and the L2-eviction flag.
LEVEL, L1_EVICT, L2_EVICT = 3, 4, 8


def geometry(hierarchy):
    """What decides residency in ``hierarchy``'s first core: the sets and
    ways of L1, L2 and LLC, and the line size."""
    l1, l2, llc = hierarchy._l1[0], hierarchy._l2[0], hierarchy.llc
    return (
        l1.n_sets, l1.assoc, l2.n_sets, l2.assoc, llc.n_sets, llc.assoc,
        l1.line_size,
    )


def _digest(addrs):
    return zlib.crc32(np.ascontiguousarray(addrs))


#: Tag-pass windows, in same-line run heads. A numpy window grows from
#: _WINDOW_MIN up to _WINDOW_MAX while its all-hit prefix reaches its
#: end and halves after a miss. From a miss the pass runs scalar for a
#: burst: _BURST_MIN heads after a long prefix, doubling up to
#: _BURST_MAX while prefixes stay shorter than _SHORT_PREFIX heads, so a
#: miss-dense stretch pays almost nothing for classification.
_WINDOW_MIN = 64
_WINDOW_MAX = 8192
_BURST_MIN = 16
_BURST_MAX = 4096
_SHORT_PREFIX = 32


class Trajectory:
    """The cache outcome of one trace on one geometry (see module doc),
    tagged lazily, one chunk at a time, from the chunks being replayed.

    :meth:`chunk_codes` tags chunk *k* from the chunk object the replay
    is about to run, the first time any replay reaches it; the per-set
    MRU lists carry the cache state from one chunk to the next. With
    ``keep`` (a trajectory the trace memo owns), ``chunks`` holds one
    ``(codes, l2_victims, length, digest)`` tuple per tagged chunk: an
    int8 array of trajectory bytes, an int64 array of the L2 victims in
    fill order, and the chunk's length and address digest, which a later
    replay's chunk must match. Without it (a trace the memo does not
    hold) nothing is kept. :meth:`finish` drops the tag-pass state once
    every chunk is tagged.
    """

    __slots__ = (
        "geometry", "keep", "chunks", "tagged", "_rows", "_in2", "_in3",
        "_mirror", "_stale", "_ramp", "_window", "_burst",
    )

    def __init__(self, geometry, keep=True):
        self.geometry = geometry
        self.keep = keep
        self.chunks = []
        #: Chunks tagged so far.
        self.tagged = 0
        l1_sets, l1_ways, l2_sets, _, llc_sets, _, line = geometry
        # Per-set MRU-first lists of line addresses, plus membership sets
        # for the two levels probed by address alone.
        self._rows = (
            [[] for _ in range(l1_sets)],
            [[] for _ in range(l2_sets)],
            [[] for _ in range(llc_sets)],
        )
        self._in2 = set()
        self._in3 = set()
        #: The L1's numpy mirror, whether its stamps hold an order the
        #: MRU lists do not, and 0, 1, 2, ...: a chunk's stamps.
        self._mirror = TagMirror(l1_sets, l1_ways, line.bit_length() - 1)
        self._stale = False
        self._ramp = np.arange(0)
        self._window = _WINDOW_MIN
        self._burst = _BURST_MIN

    def chunk_codes(self, index, chunk):
        """The ``(codes, l2_victims)`` of trace chunk ``index``: tagged from
        ``chunk`` when no replay reached it before, else the kept ones,
        checked against ``chunk``."""
        addrs = chunk.frozen.addrs
        if index < self.tagged:
            if index >= len(self.chunks):
                raise ConfigurationError(
                    "trajectory keeps no chunks; it cannot be replayed twice"
                )
            codes, victims, n, digest = self.chunks[index]
            if len(addrs) != n or _digest(addrs) != digest:
                raise ConfigurationError(
                    "trajectory was built from a different trace (chunk %d)" % index
                )
            return codes, victims
        if index != self.tagged:
            raise ConfigurationError("trajectory chunks are tagged in order")
        try:
            codes, victims = self._tag(addrs)
        except BaseException:
            # A failed pass may leave the MRU lists half updated: the
            # next replay tags from the trace's start.
            self.__init__(self.geometry, self.keep)
            raise
        self.tagged += 1
        if self.keep:
            self.chunks.append((codes, victims, len(addrs), _digest(addrs)))
        return codes, victims

    def finish(self):
        """A replay reached the trace's end, so every chunk is tagged:
        drop the tag-pass state. Later replays read the kept chunks."""
        self._rows = self._in2 = self._in3 = self._mirror = self._ramp = None

    def _tag(self, addrs):
        """Tag one chunk's references; returns its codes and L2 victims.

        A chunk that hits the L1 throughout only stamps the mirror. Else,
        from the first miss, the scalar step takes a burst of run heads
        on the MRU lists (rebuilt from the stamps if windows stamped them)
        and a numpy window stamps the heads up to the next miss.
        """
        _, l1_ways, _, l2_ways, _, llc_ways, line = self.geometry
        shift = line.bit_length() - 1
        s1, s2, s3 = self._rows
        m1, m2, m3 = len(s1) - 1, len(s2) - 1, len(s3) - 1
        in2 = self._in2
        in3 = self._in3
        mirror = self._mirror
        window = self._window
        burst = self._burst
        n_refs = len(addrs)
        if len(self._ramp) < n_refs:
            self._ramp = np.arange(n_refs)
        ids = addrs >> shift
        mirror.cover(int(ids.max()))
        hits = mirror.hit_prefix(ids, self._ramp)
        stale = self._stale or hits > 0
        codes = np.zeros(n_refs, dtype=np.int8)
        if hits == n_refs:
            self._stale = stale
            mirror.stamps -= n_refs
            return codes, np.zeros(0, dtype=np.int64)
        heads = np.flatnonzero(addrs[1:] != addrs[:-1]) + 1
        heads = np.concatenate(([0], heads))
        head_ids = ids[heads]
        head_addrs = addrs[heads]
        n_heads = len(heads)
        miss_pos = []
        miss_code = []
        victims = []
        # The reference that missed heads its run.
        k = int(heads.searchsorted(hits))
        while True:
            if stale:
                s1[:] = mirror.rows()
                stale = False
            stop = min(k + burst, n_heads)
            for p, a in zip(heads[k:stop].tolist(), head_addrs[k:stop].tolist()):
                row = s1[(a >> shift) & m1]
                if a in row:
                    if row[0] != a:
                        row.remove(a)
                        row.insert(0, a)
                    continue
                row2 = s2[(a >> shift) & m2]
                if a in in2:
                    if row2[0] != a:
                        row2.remove(a)
                        row2.insert(0, a)
                    code = L2_HIT
                else:
                    row3 = s3[(a >> shift) & m3]
                    if a in in3:
                        if row3[0] != a:
                            row3.remove(a)
                            row3.insert(0, a)
                        code = LLC_HIT
                    else:
                        code = LLC_MISS
                        row3.insert(0, a)
                        in3.add(a)
                        if len(row3) > llc_ways:
                            # Back-invalidation: inclusion takes the
                            # victim's private copies with it.
                            v = row3.pop()
                            in3.remove(v)
                            if v in in2:
                                in2.remove(v)
                                s2[(v >> shift) & m2].remove(v)
                                vs = (v >> shift) & m1
                                if v in s1[vs]:
                                    s1[vs].remove(v)
                    row2.insert(0, a)
                    in2.add(a)
                    if len(row2) > l2_ways:
                        v = row2.pop()
                        in2.remove(v)
                        victims.append(v)
                        code |= L2_EVICT
                        vs = (v >> shift) & m1
                        if v in s1[vs]:
                            s1[vs].remove(v)
                row.insert(0, a)
                if len(row) > l1_ways:
                    row.pop()
                    code |= L1_EVICT
                miss_pos.append(p)
                miss_code.append(code)
            k = stop
            mirror.sync(s1)
            # Numpy windows, growing while they hit to their end.
            while k < n_heads:
                end = min(k + window, n_heads)
                hits = mirror.hit_prefix(head_ids[k:end], heads[k:end])
                if hits:
                    stale = True
                k += hits
                if k < end:
                    break
                if window < _WINDOW_MAX:
                    window *= 2
            else:
                break
            if window > _WINDOW_MIN:
                window //= 2
            if hits < _SHORT_PREFIX:
                if burst < _BURST_MAX:
                    burst *= 2
            else:
                burst = _BURST_MIN
        self._window = window
        self._burst = burst
        self._stale = stale
        mirror.stamps -= n_refs
        codes[miss_pos] = miss_code
        return codes, np.array(victims, dtype=np.int64)


class PrivateCopies:
    """The replay's private caches: one record per line resident in L2.

    ``lines`` maps each such address to its record (a detached
    :class:`~repro.cache.line.CacheLine` holding the newest private
    data); ``dirty`` holds the records newer than their LLC line, in the
    order they became so. :meth:`install` points the hierarchy's
    private-cache sync paths here for the rest of the simulation.
    """

    __slots__ = ("hierarchy", "llc", "lines", "dirty")

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self.llc = hierarchy.llc
        self.lines = {}
        self.dirty = {}

    def install(self):
        """Make the hierarchy answer its LLC back-invalidations and its
        private-cache syncs (and so ``collect_dirty_lines`` and ACS
        snoops) from these records."""
        hierarchy = self.hierarchy
        hierarchy._back_invalidate = self.back_invalidate
        hierarchy.sync_all_private = self.sync_all_private
        hierarchy.sync_private_line = self.sync_private_line

    def evict(self, line_addr):
        """An L2 victim leaves (its L1 copy with it): the record's dirty
        data folds into the LLC line."""
        record = self.lines.pop(line_addr)
        if record._dirty:
            del self.dirty[line_addr]
            target = self.llc._tags.get(line_addr)
            if target is None:
                raise SimulationError(
                    "inclusion violated: L2 victim %#x absent from LLC" % line_addr
                )
            self.hierarchy._merge_lines(target, record)

    def back_invalidate(self, llc_victim):
        """An LLC victim leaves: inclusion takes its record with it, and
        the record's dirty data folds into the victim (the hierarchy's
        ``_back_invalidate``)."""
        record = self.lines.pop(llc_victim.addr, None)
        if record is not None and record._dirty:
            del self.dirty[llc_victim.addr]
            self.hierarchy._merge_lines(llc_victim, record)
        llc_victim.owner = None

    def sync_all_private(self):
        """Fold every dirty record into its LLC line and refresh it (the
        hierarchy's ``sync_all_private``)."""
        hierarchy = self.hierarchy
        llc_tags = self.llc._tags
        for addr, record in self.dirty.items():
            target = llc_tags.get(addr)
            if target is None:
                raise SimulationError(
                    "inclusion violated: private dirty %#x not in LLC" % addr
                )
            hierarchy._merge_lines(target, record)
            hierarchy._refresh_copy(record, target)
        self.dirty.clear()

    def sync_private_line(self, line_addr):
        """Fold one line's dirty record into the LLC and refresh it (the
        hierarchy's ``sync_private_line``); returns the LLC line."""
        llc_line = self.llc._tags.get(line_addr)
        record = self.lines.get(line_addr)
        if llc_line is None or record is None:
            return llc_line
        hierarchy = self.hierarchy
        if record._dirty:
            hierarchy._merge_lines(llc_line, record)
            del self.dirty[line_addr]
        hierarchy._refresh_copy(record, llc_line)
        return llc_line
