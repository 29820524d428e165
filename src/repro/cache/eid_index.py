"""The software analogue of PiCL's EID array (§IV, "Asynchronous Cache Scan").

The paper's ACS engine never walks the LLC data/tag arrays: it reads a
dedicated, densely packed EID array, so the cost of a persist scan is
proportional to the lines that *might* match, not to cache capacity ("no
tag checks required"). This module is that structure in software: an
index over the LLC's resident lines that the cache maintains incrementally
— through :class:`repro.cache.line.CacheLine`'s ``_home`` back-pointer on
every insert, removal, dirty flip and EID retag — and that is therefore
never rebuilt by scanning.

What each dict models:

* ``buckets[eid]`` — the EID array rows tagged ``eid``: every resident
  line carrying that (full, unwrapped) EID. Buckets hold *clean* tagged
  lines too, because the hardware scan matches on the EID array alone and
  then snoops: a line whose only dirty copy sits in a private cache is
  clean in the LLC yet must still be found, snooped, and written back
  (PiCL's undo forwarding retags the LLC copy without dirtying it).
* ``sub`` — lines under 16 B sub-block tracking (``sub_eids`` is not
  ``None``). These carry up to four EIDs, so they live in one dedicated
  bucket and the scan re-checks ``sub_eids`` per line; keeping them out
  of ``buckets`` guarantees a line is never visited through two buckets.
* The untagged-dirty bucket — dirty lines with no EID at all (every
  non-PiCL scheme's dirty lines) — is the per-cache dirty-line dict
  (``SetAssocCache._dirty_lines``), which doubles as the O(dirty) source
  for flush/sync paths; the EID index itself only tracks tagged lines.

Membership invariant: a resident line is in exactly one place — ``sub``
if ``sub_eids is not None``, else ``buckets[line.eid]`` if ``line.eid >=
0``, else (untagged) in no EID bucket. All dicts are insertion-ordered;
consumers that need the brute-force sweep's exact visit order regroup
candidates by cache set (see ``SetAssocCache.dirty_lines`` and
``AcsEngine``), so index-backed paths stay bit-identical to the
brute-force oracle.
"""


class EidIndex:
    """Incrementally maintained EID buckets over one cache's lines."""

    __slots__ = ("buckets", "sub")

    def __init__(self):
        #: full EID -> {line_addr: CacheLine} for tagged, non-sub lines.
        self.buckets = {}
        #: {line_addr: CacheLine} for lines with per-sub-block EIDs.
        self.sub = {}

    # ------------------------------------------------------------------
    # maintenance (called by SetAssocCache / CacheHierarchy / CacheLine)
    # ------------------------------------------------------------------

    def add(self, line):
        """Index a line entering the cache (caller checked it is tagged)."""
        if line.sub_eids is not None:
            self.sub[line.addr] = line
        elif line.eid >= 0:
            bucket = self.buckets.get(line.eid)
            if bucket is None:
                bucket = self.buckets[line.eid] = {}
            bucket[line.addr] = line

    def discard(self, line):
        """Drop a line leaving the cache (eviction, removal, power loss)."""
        if line.sub_eids is not None:
            self.sub.pop(line.addr, None)
        elif line.eid >= 0:
            bucket = self.buckets.get(line.eid)
            if bucket is not None:
                bucket.pop(line.addr, None)
                if not bucket:
                    del self.buckets[line.eid]

    def retag(self, line, old_eid):
        """Move a non-sub line whose ``eid`` changed from ``old_eid``.

        Handles tagging (old < 0), retagging, and untagging (new < 0).
        A stale ``old_eid`` raises KeyError — the index must never drift
        from the cache, so inconsistency fails fast instead of healing.
        """
        if old_eid >= 0:
            bucket = self.buckets[old_eid]
            del bucket[line.addr]
            if not bucket:
                del self.buckets[old_eid]
        eid = line.eid
        if eid >= 0:
            bucket = self.buckets.get(eid)
            if bucket is None:
                bucket = self.buckets[eid] = {}
            bucket[line.addr] = line

    def refresh(self, line, old_eid, old_had_sub):
        """Re-home a line after a merge may have changed eid/sub state."""
        if old_had_sub:
            # sub_eids never revert to None; membership is stable.
            return
        if line.sub_eids is not None:
            if old_eid >= 0:
                bucket = self.buckets[old_eid]
                del bucket[line.addr]
                if not bucket:
                    del self.buckets[old_eid]
            self.sub[line.addr] = line
        elif line.eid != old_eid:
            self.retag(line, old_eid)

    def clear(self):
        """Power loss: the on-chip EID array vanishes with the cache."""
        self.buckets.clear()
        self.sub.clear()

    # ------------------------------------------------------------------
    # queries (the ACS engine)
    # ------------------------------------------------------------------

    def occupancy(self, lo_eid, hi_eid):
        """Number of candidate lines an ACS pass over the range must visit."""
        count = len(self.sub)
        for eid, bucket in self.buckets.items():
            if lo_eid <= eid <= hi_eid:
                count += len(bucket)
        return count

    def candidates(self, lo_eid, hi_eid):
        """The lines an ACS pass over ``[lo_eid, hi_eid]`` may match.

        Sub-block lines are always candidates (their per-sub-block EIDs
        are re-checked by the scan's own ``_matches``); tagged lines come
        from the buckets in range. The list is a snapshot: the scan's
        snoops and writebacks may retag or clean lines mid-pass without
        invalidating it.
        """
        out = list(self.sub.values())
        buckets = self.buckets
        if len(buckets) <= 2 * (hi_eid - lo_eid + 1):
            for eid, bucket in buckets.items():
                if lo_eid <= eid <= hi_eid:
                    out.extend(bucket.values())
        else:
            for eid in range(lo_eid, hi_eid + 1):
                bucket = buckets.get(eid)
                if bucket:
                    out.extend(bucket.values())
        return out

    def __len__(self):
        return len(self.sub) + sum(len(b) for b in self.buckets.values())

    # ------------------------------------------------------------------
    # differential oracle
    # ------------------------------------------------------------------

    def verify_against(self, cache):
        """Diff the index against a full sweep of ``cache``'s lines.

        Returns a list of mismatch descriptions (empty = coherent). The
        engine-identity harness runs this after every fast-engine run,
        whose drained windows interleave deferred undo appends with
        inline index updates — the one ordering the engine must *not*
        batch (a deferred discard could pop a same-addr successor's
        bucket entry), so divergence here is the canary for that class
        of bug.
        """
        problems = []
        indexed = 0
        for addr, line in cache._tags.items():
            if line.sub_eids is not None:
                if self.sub.get(addr) is not line:
                    problems.append("sub line %#x missing/stale" % addr)
                indexed += 1
            elif line.eid >= 0:
                bucket = self.buckets.get(line.eid)
                if bucket is None or bucket.get(addr) is not line:
                    problems.append(
                        "line %#x eid %d missing/stale" % (addr, line.eid)
                    )
                indexed += 1
        held = len(self)
        if held != indexed:
            problems.append("index holds %d lines, cache tags %d" % (held, indexed))
        for eid, bucket in self.buckets.items():
            if not bucket:
                problems.append("empty bucket for eid %d survived" % eid)
        return problems
