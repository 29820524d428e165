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

A hit changes only the order of its set's MRU list, never which lines
are resident, so a window of hits leaves the mirror exact. Only the
pass's scalar steps change residency (fills, evictions,
back-invalidations); they note the sets they touch, and :meth:`sync`
re-indexes those sets from the MRU lists before the next window is
classified.
"""

import numpy as np

#: Slot of a line that is not resident; address of an empty slot.
EMPTY = -1

#: Largest line number the table indexes (16 MiB of int32 slots).
MAX_LINES = 1 << 22


class TagMirror:
    """Slot table of an L1's resident lines (see the module docstring)."""

    __slots__ = ("ways", "shift", "addrs", "slots")

    def __init__(self, n_sets, ways, line_shift):
        self.ways = ways
        self.shift = line_shift
        #: Slot -> resident address (EMPTY when free).
        self.addrs = np.full(n_sets * ways, EMPTY, dtype=np.int64)
        #: Line number -> slot (EMPTY when not resident); None once a
        #: line number past MAX_LINES turned the mirror off.
        self.slots = np.full(1024, EMPTY, dtype=np.int32)

    def _cover(self, top):
        """Grow the slot table to index line number ``top``; past
        :data:`MAX_LINES`, turn the mirror off. Returns whether it is on."""
        if self.slots is None:
            return False
        size = len(self.slots)
        if top < size:
            return True
        if top >= MAX_LINES:
            self.slots = None
            return False
        while size <= top:
            size *= 2
        grown = np.full(min(size, MAX_LINES), EMPTY, dtype=np.int32)
        grown[:len(self.slots)] = self.slots
        self.slots = grown
        return True

    def sync(self, rows, touched):
        """Re-index the sets in ``touched`` (then cleared) from ``rows``,
        the tag pass's per-set MRU lists of addresses."""
        if not touched:
            return
        if self.slots is None:
            touched.clear()
            return
        ways = self.ways
        shift = self.shift
        sets = list(dict.fromkeys(touched))
        touched.clear()
        by_set = self.addrs.reshape(-1, ways)
        old = by_set[sets]
        self.slots[old[old >= 0] >> shift] = EMPTY
        new_addrs = []
        new_slots = []
        padded = []
        pad = [EMPTY] * ways
        for s in sets:
            row = rows[s]
            new_addrs += row
            new_slots += range(s * ways, s * ways + len(row))
            padded.append(row + pad[len(row):])
        by_set[sets] = padded
        if new_addrs:
            ids = np.array(new_addrs, dtype=np.int64) >> shift
            if self._cover(int(ids.max())):
                self.slots[ids] = new_slots

    def hit_prefix(self, addrs):
        """Classify ``addrs`` against the mirror.

        Returns ``(n, order)``: ``n`` is the length of the all-hit
        prefix, up to the first miss, and ``order`` the addresses that
        prefix touches, each once, in ascending order of last touch —
        one move-to-front per address in that order leaves every MRU
        list as the ``n`` hits one by one would.
        """
        ids = addrs >> self.shift
        if not self._cover(int(ids.max())):
            return 0, ()
        slot = self.slots.take(ids)
        hit = slot >= 0
        n = len(slot) if hit.all() else int(hit.argmin())
        if not n:
            return 0, ()
        last = np.full(len(self.addrs), -1, dtype=np.int64)
        np.maximum.at(last, slot[:n], np.arange(n))
        touched = np.flatnonzero(last >= 0)
        touched = touched[np.argsort(last[touched])]
        return n, self.addrs[touched].tolist()
