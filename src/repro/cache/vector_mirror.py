"""Numpy index of the tag pass's L1 residency, for hit classification.

The scheme-free tag pass (:class:`repro.cache.trajectory.Trajectory`)
keeps the L1 as per-set MRU lists of line addresses. Python lists cannot
be probed array-at-a-time, so the pass also keeps this mirror: every
resident line owns a *slot* (``set * ways + way``, unique among the
resident lines), and a table indexed by line number (address over line
size) holds each resident line's slot and ``-1`` for every other line.
A window of references is then classified with one gather (see
:meth:`TagMirror.hit_prefix`). The table covers the line numbers seen so
far and grows on demand, up to :data:`MAX_LINES`; a trace reaching past
that turns the mirror off, leaving every window to the scalar step.

The mirror keeps the L1's LRU order as a *stamp* per slot, the index of
the reference that last touched it (as gem5's LRU policy keeps a tick
per block), counted from the current chunk's first reference. A window
of hits changes only that order, never residency, so one scatter of its
positions into the stamps of its slots keeps the mirror exact. The
scalar steps change residency and reorder the MRU lists; after a burst
of them :meth:`sync` re-indexes and re-stamps the mirror from the lists,
and before one :meth:`rows` rebuilds the lists from the stamps.
"""

import numpy as np

#: Slot of a line that is not resident; address of an empty slot.
EMPTY = -1

#: Largest line number the table indexes (32 MiB of slots).
MAX_LINES = 1 << 22


class TagMirror:
    """Slot table and last-touch stamps of an L1's resident lines (see
    the module docstring)."""

    __slots__ = ("ways", "shift", "addrs", "stamps", "slots")

    def __init__(self, n_sets, ways, line_shift):
        self.ways = ways
        self.shift = line_shift
        #: Slot -> resident address (EMPTY when free).
        self.addrs = np.full(n_sets * ways, EMPTY, dtype=np.int64)
        #: Slot -> last touch (see the module docstring).
        self.stamps = np.zeros(n_sets * ways, dtype=np.int64)
        #: Line number -> slot (EMPTY when not resident); None once a
        #: line number past MAX_LINES turned the mirror off.
        self.slots = np.full(1024, EMPTY, dtype=np.intp)

    def cover(self, top):
        """Grow the slot table to index line number ``top``; past
        :data:`MAX_LINES`, turn the mirror off."""
        slots = self.slots
        if slots is None or top < len(slots):
            return
        if top >= MAX_LINES:
            self.slots = None
            return
        size = len(slots)
        while size <= top:
            size *= 2
        grown = np.full(min(size, MAX_LINES), EMPTY, dtype=np.intp)
        grown[:len(slots)] = slots
        self.slots = grown

    def sync(self, rows):
        """Re-index every set from ``rows``, the tag pass's per-set MRU
        lists of (covered) addresses, and stamp each line by its rank,
        below every position of the chunk being tagged (MRU at -1)."""
        if self.slots is None:
            return
        ways = self.ways
        addrs = self.addrs
        self.slots[addrs[addrs >= 0] >> self.shift] = EMPTY
        pad = [EMPTY] * ways
        addrs.reshape(-1, ways)[:] = [row + pad[len(row):] for row in rows]
        resident = np.flatnonzero(addrs >= 0)
        self.slots[addrs[resident] >> self.shift] = resident
        self.stamps.reshape(-1, ways)[:] = -1 - np.arange(ways)

    def hit_prefix(self, ids, stamps):
        """Classify the line numbers ``ids`` (covered, see :meth:`cover`)
        against the mirror and return the length of the all-hit prefix,
        up to the first miss. The slots that prefix hits take its
        references' ``stamps`` (ascending), each slot its last."""
        if self.slots is None:
            return 0
        slot = self.slots.take(ids)
        first = int(slot.argmin())
        n = len(slot) if slot[first] >= 0 else first
        # The last write wins (pinned in tests/cache/test_trajectory.py).
        self.stamps[slot[:n]] = stamps[:n]
        return n

    def rows(self):
        """The per-set MRU lists of resident addresses, from the stamps
        (the free slots of a set stamp lowest, so they come last)."""
        ways = self.ways
        order = self.stamps.reshape(-1, ways).argsort(axis=1)[:, ::-1]
        by_set = np.take_along_axis(self.addrs.reshape(-1, ways), order, axis=1)
        counts = (by_set >= 0).sum(axis=1).tolist()
        return [row[:n] for row, n in zip(by_set.tolist(), counts)]
