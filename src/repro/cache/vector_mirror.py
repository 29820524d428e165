"""Numpy mirror of one L1's tag and EID state for columnar classification.

The single-core driver (:meth:`repro.sim.simulator.Simulation.
_run_single_core`) classifies a lookahead window of references at once:
set indices and an L1 tag probe in numpy. Python dicts cannot be probed
array-at-a-time, so the single core's L1 (unless ``REPRO_VECTOR=0``, or
it is wider than :data:`ROW_WAYS` ways) carries this mirror — a
``(n_sets, ROW_WAYS)`` int64 tag table plus a parallel EID table, every
row padded with ways that are always empty, so a row's match vector is
exactly one 8-byte word (see :class:`TagMirror`). No L2 or LLC carries a
mirror.

The mirror is **lazily coherent**. Keeping it exact at every miss fill /
eviction / retag costs a function call on the cache's hottest paths — a tax
paid even while the interpreter is disengaged on a miss-heavy phase, and
measured at roughly a third of the columnar loop's overhead. Instead, the
hot paths only append the affected line to one of three queues (plain
``list.append``, no call into the mirror):

* :attr:`pending` — lines that became resident (miss fills),
* :attr:`evictq` — lines that left (evictions, back-invalidations),
* :attr:`eidq` — resident lines whose EID tag may have moved (stores,
  sync refreshes, merge retags).

:meth:`sync` drains the queues immediately before each window
classification, so the tag table is exact at the only moments it is read.
Way slots are tracked on the lines themselves (``CacheLine._vslot``),
claimed at sync time from per-set free lists.

Between a classification and the end of its window the mirror goes stale
again as residual references mutate the cache. Two staleness directions
matter, and only one is dangerous:

* **Stale-negative** (classified miss, line is actually resident — e.g. a
  ref later in the window hits a line an earlier residual just filled):
  safe, because residual references replay through the exact
  per-reference path, which handles hits and misses alike.
* **Stale-positive** (classified hit, but a mid-window eviction removed
  the line): unsafe for the bulk path, so every eviction *also* appends
  the victim's address to :attr:`removed` — the one eager hook — and the
  interpreter demotes the victim's remaining classified-fast references
  back to the exact path after every residual span.

Tags are line addresses (always ``>= 0``); empty ways hold ``-1``. The EID
table is only consulted for ways whose tag matched, so its value for empty
ways is irrelevant. A line's slot is ``set * ways + way``; within one
synced table, slots and resident addresses map one to one.
"""

import numpy as np

#: Sentinel tag for an empty way (line addresses are non-negative).
EMPTY = -1

#: Row width of the L1 mirror: one byte of tag matches per way makes a
#: row's match vector one little-endian 64-bit word.
ROW_WAYS = 8


class TagMirror:
    """Array mirror of an L1's residency and EID tags, rows padded to
    :data:`ROW_WAYS` ways.

    The columnar interpreter compares a window's addresses against their
    set rows and views each row's ``ROW_WAYS`` match bytes as one
    little-endian ``uint64``: nonzero is a hit, and the position of its one
    set byte is the matched way, hence the mirror slot. Padding serves
    every associativity up to ``ROW_WAYS`` with that one code path; the
    hierarchy attaches no mirror to a wider L1 (the single-core driver
    then replays every reference through the drain or the scalar body).
    """

    __slots__ = (
        "n_sets",
        "assoc",
        "ways",
        "_line_shift",
        "_set_mask",
        "tags",
        "eids",
        "tags2d",
        "_free",
        "pending",
        "evictq",
        "eidq",
        "removed",
    )

    def __init__(self, n_sets, assoc, line_shift, set_mask):
        self.n_sets = n_sets
        self.assoc = assoc
        #: Ways per row; ways past ``assoc`` are never claimed, so they
        #: stay empty.
        self.ways = ways = ROW_WAYS
        self._line_shift = line_shift
        self._set_mask = set_mask
        self.tags = np.full(n_sets * ways, EMPTY, dtype=np.int64)
        self.eids = np.zeros(n_sets * ways, dtype=np.int64)
        #: A 2-D view over the same storage for fancy-indexed row reads.
        self.tags2d = self.tags.reshape(n_sets, ways)
        #: Free ways per set (way indices; order is irrelevant).
        self._free = [list(range(assoc)) for _ in range(n_sets)]
        #: Lines that became resident since the last sync.
        self.pending = []
        #: Lines that left the cache since the last sync.
        self.evictq = []
        #: Lines whose EID tag may have changed since the last sync.
        self.eidq = []
        #: Addresses evicted since the interpreter last drained this list;
        #: the columnar loop demotes their remaining classified-hit
        #: references to the exact path (stale-positive demotion). Eager,
        #: unlike the slot queues: it guards *within* a window.
        self.removed = []

    def sync(self, l1_tags):
        """Drain the queues so the tag table matches the live cache.

        Order matters: evictions free ways before fills claim them (the
        same addr may have been evicted and refilled as a new line), and
        EID refreshes run last so they see the slots fills just claimed.
        ``l1_tags`` is the cache's live tag dict — a queued line only
        claims a way if it is *still* the resident line for its address.

        When more events queued up than the cache holds lines, replaying
        history is pointless: rebuild the table from the live tag dict
        instead, which bounds every sync at O(resident).
        """
        evictq = self.evictq
        if len(self.pending) + len(evictq) + len(self.eidq) > len(l1_tags):
            self.rebuild(l1_tags)
            return
        if evictq:
            tags = self.tags
            free = self._free
            ways = self.ways
            for line in evictq:
                slot = line._vslot
                if slot >= 0:
                    line._vslot = -1
                    tags[slot] = EMPTY
                    free[slot // ways].append(slot % ways)
            evictq.clear()
        pending = self.pending
        if pending:
            tags = self.tags
            eids = self.eids
            shift = self._line_shift
            mask = self._set_mask
            ways = self.ways
            free = self._free
            for line in pending:
                addr = line.addr
                if line._vslot < 0 and l1_tags.get(addr) is line:
                    set_index = (addr >> shift) & mask
                    slot = set_index * ways + free[set_index].pop()
                    line._vslot = slot
                    tags[slot] = addr
                    eids[slot] = line.eid
            pending.clear()
        eidq = self.eidq
        if eidq:
            eids = self.eids
            for line in eidq:
                slot = line._vslot
                if slot >= 0:
                    eids[slot] = line.eid
            eidq.clear()

    def rebuild(self, l1_tags):
        """Re-derive the whole table from the live tag dict.

        Queued lines that died before this point keep a stale ``_vslot``;
        that is harmless — a dead line is never re-inserted (every fill
        creates a fresh CacheLine), so its slot is never read again.
        """
        tags = self.tags
        eids = self.eids
        tags.fill(EMPTY)
        ways = self.ways
        shift = self._line_shift
        mask = self._set_mask
        free = self._free = [list(range(self.assoc)) for _ in range(self.n_sets)]
        for addr, line in l1_tags.items():
            set_index = (addr >> shift) & mask
            slot = set_index * ways + free[set_index].pop()
            line._vslot = slot
            tags[slot] = addr
            eids[slot] = line.eid
        self.pending.clear()
        self.evictq.clear()
        self.eidq.clear()

    def clear(self):
        """Power loss / invalidate_all: every way empties at once.

        The caller resets ``_vslot`` on the dropped lines (it is already
        sweeping them to sever their home pointers).
        """
        self.tags.fill(EMPTY)
        self._free = [list(range(self.assoc)) for _ in range(self.n_sets)]
        self.pending.clear()
        self.evictq.clear()
        self.eidq.clear()
        self.removed.clear()

    def __len__(self):
        return int((self.tags != EMPTY).sum())

