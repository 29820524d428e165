"""Shadow-Paging: page-granularity copy-on-write journaling.

"Largely similar to Journaling, but increases the tracking granularity to
page size (4 KB). Page copy-on-write is done on a translation write miss,
and page write-back is done on a commit." The paper adds two optimizations
which we reproduce:

1. CoW copies happen *locally within the memory module* (one sequential
   operation, no link crossing) — :meth:`repro.mem.controller.MemoryController.bulk_copy`.
2. After a commit writes a page back, its translation entry is *retained*
   so the next epoch's writes to the same page need no new CoW; retained
   (clean) entries are evicted on set conflicts before the epoch is forced
   to commit early.

Page entries track up to 64 cache lines each, so sequential workloads
(e.g. mcf) fit the table easily, while low-spatial-locality workloads
(astar) burn one 4 KB copy per stray write and overflow anyway (Fig 11).
"""

from repro.baselines.base import CrashConsistencyScheme, TranslationTable
from repro.common.address import PAGE_SIZE, iter_page_lines, page_address
from repro.mem.nvm import AccessCategory


class _PageEntry:
    """Per-page translation state: dirty this epoch?"""

    __slots__ = ("dirty",)

    def __init__(self):
        self.dirty = False


class ShadowPaging(CrashConsistencyScheme):
    """Page-granularity CoW journaling with entry retention."""

    name = "shadow"

    def __init__(self, system, table_entries=6144, table_assoc=16):
        super().__init__(system)
        self.table = TranslationTable(
            table_entries, table_assoc, granularity_bytes=PAGE_SIZE
        )
        #: Durable shadow-copy contents: line addr -> newest token.
        self.shadow_contents = {}
        self._last_commit = -1

    # ------------------------------------------------------------------
    # store path: CoW on translation write miss
    # ------------------------------------------------------------------

    def on_store(self, core, line, now):
        """First store to a page this epoch triggers the CoW (and may overflow)."""
        page = page_address(line.addr)
        entry = self.table.lookup(page)
        if entry is not None:
            entry.dirty = True
            return 0
        stall = 0
        inserted, evicted = self.table.insert_with_eviction(
            page, _PageEntry(), evictable=lambda value: not value.dirty
        )
        if not inserted:
            self.stats.add("commits.forced")
            stall += self._commit(now)
            inserted, evicted = self.table.insert_with_eviction(
                page, _PageEntry(), evictable=lambda value: not value.dirty
            )
            if not inserted:
                raise AssertionError("shadow table full immediately after commit")
        if evicted is not None:
            self.stats.add("shadow.entries_evicted")
        entry = self.table.lookup(page)
        entry.dirty = True
        # Copy-on-write: clone the canonical page into the shadow copy,
        # locally within the memory module.
        _completion, cow_stall = self.controller.bulk_copy(PAGE_SIZE, now)
        self.stats.add("shadow.page_cows")
        return stall + cow_stall

    # ------------------------------------------------------------------
    # eviction path: into the shadow copy
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """Divert the write into the page's shadow copy."""
        self.shadow_contents[line_addr] = token
        _completion, stall = self.controller.write_line(
            line_addr, now, AccessCategory.WRITEBACK
        )
        return stall

    def fill_token(self, line_addr):
        """Snoop the shadow copies for the newest data."""
        return self.shadow_contents.get(line_addr)

    # ------------------------------------------------------------------
    # commit: flush caches into shadows, write dirty pages back
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Synchronous commit: flush caches, write dirty pages back, drain."""
        return self._commit(now)

    def _commit(self, now):
        stall = self.system.handler_stall()
        stall += self._flush_all_dirty(now)
        dirty_pages = [
            page for page, entry in self.table.items() if entry.dirty
        ]
        for page in dirty_pages:
            _completion, s = self.controller.bulk_write(
                PAGE_SIZE, now + stall, AccessCategory.SEQUENTIAL
            )
            stall += s
            for line_addr in iter_page_lines(page):
                if line_addr in self.shadow_contents:
                    self.controller.write_token(
                        line_addr, self.shadow_contents[line_addr]
                    )
            entry = self.table.lookup(page)
            entry.dirty = False
        self.stats.add("shadow.page_writebacks", len(dirty_pages))
        self.shadow_contents.clear()
        stall += self.controller.drain(now + stall)
        self._last_commit = self._commit_now()
        return stall

    def finalize(self, now):
        """Drain posted writes so end-of-run timing is comparable."""
        return self.controller.drain(now)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self):
        """Canonical pages are only updated at commits; shadows are discarded."""
        return self.controller.snapshot_image(), self._last_commit
