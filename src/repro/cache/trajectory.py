"""Scheme-free cache trajectories: one tag pass, replayed by every scheme.

On one core the cache *outcome* of a trace does not depend on the
crash-consistency scheme. Replacement is LRU on the reference order
alone; schemes flush, scan, retag and clean lines, but none of them
moves a line in or out of a cache (a flush writes a dirty line back and
keeps it resident). So which level serves each reference, and which
line each fill evicts, are fixed by the trace and the cache geometry —
the Mattson et al. observation behind stack processing ("Evaluation
techniques for storage hierarchies", IBM Systems Journal, 1970).

:class:`Trajectory` is that outcome, computed once per *trajectory key*
(the trace plus the geometry that decides residency: sizes, ways and
line size — not latencies, not epoch length). Its tag pass keeps only
line addresses in per-set MRU lists and visits only the head of each
same-line run (a repeat of the line just referenced is an L1 hit that
moves nothing). Per reference it records one byte:

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


class Trajectory:
    """The cache outcome of one trace on one geometry (see module doc).

    ``chunks`` holds one ``(codes, l2_victims, length, digest)`` tuple per
    trace chunk: an int8 array of trajectory bytes, an int64 array of the
    L2 victims in fill order, and the chunk's length and address digest,
    which :meth:`chunk_codes` checks against the chunk being replayed.
    """

    __slots__ = ("geometry", "chunks")

    def __init__(self, trace, geometry):
        self.geometry = geometry
        l1_sets, l1_ways, l2_sets, l2_ways, llc_sets, llc_ways, line = geometry
        shift = line.bit_length() - 1
        m1, m2, m3 = l1_sets - 1, l2_sets - 1, llc_sets - 1
        # Per-set MRU-first lists of line addresses, plus membership sets
        # for the two levels probed by address alone.
        s1 = [[] for _ in range(l1_sets)]
        s2 = [[] for _ in range(l2_sets)]
        s3 = [[] for _ in range(llc_sets)]
        in2 = set()
        in3 = set()
        chunks = []
        for chunk in trace.chunks():
            addrs = chunk.frozen.addrs
            n = len(addrs)
            # Run heads: a reference to the line just referenced is an L1
            # hit on the MRU way and changes nothing.
            heads = np.flatnonzero(addrs[1:] != addrs[:-1]) + 1
            heads = np.concatenate(([0], heads))
            miss_pos = []
            miss_code = []
            victims = []
            for p, a in zip(heads.tolist(), addrs[heads].tolist()):
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
                                vrow = s1[(v >> shift) & m1]
                                if v in vrow:
                                    vrow.remove(v)
                    row2.insert(0, a)
                    in2.add(a)
                    if len(row2) > l2_ways:
                        v = row2.pop()
                        in2.remove(v)
                        victims.append(v)
                        code |= L2_EVICT
                        vrow = s1[(v >> shift) & m1]
                        if v in vrow:
                            vrow.remove(v)
                row.insert(0, a)
                if len(row) > l1_ways:
                    row.pop()
                    code |= L1_EVICT
                miss_pos.append(p)
                miss_code.append(code)
            codes = np.zeros(n, dtype=np.int8)
            codes[miss_pos] = miss_code
            chunks.append(
                (codes, np.array(victims, dtype=np.int64), n, _digest(addrs))
            )
        self.chunks = chunks

    def chunk_codes(self, index, chunk):
        """The ``(codes, l2_victims)`` of trace chunk ``index``, checked
        against the chunk the caller is about to replay."""
        if index >= len(self.chunks):
            raise ConfigurationError("trajectory is shorter than the trace")
        codes, victims, n, digest = self.chunks[index]
        addrs = chunk.frozen.addrs
        if len(addrs) != n or _digest(addrs) != digest:
            raise ConfigurationError(
                "trajectory was built from a different trace (chunk %d)" % index
            )
        return codes, victims


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
        snoops) from these records, and stop queueing updates for an L1
        mirror nothing classifies against."""
        hierarchy = self.hierarchy
        hierarchy._back_invalidate = self.back_invalidate
        hierarchy.sync_all_private = self.sync_all_private
        hierarchy.sync_private_line = self.sync_private_line
        hierarchy._l1[0]._vec = None

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
