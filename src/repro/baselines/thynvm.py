"""ThyNVM: dual-granularity redo logging with one-checkpoint overlap.

The closest prior work to PiCL (§II-B). Redo-based, with translation
entries at mixed granularity — 2048 block (64 B) plus 4096 page (4 KB)
entries, 16-way set-associative, per the paper's methodology — and the
ability to overlap *one* checkpoint's apply phase with the next epoch's
execution:

* At a commit, dirty data is flushed into the redo region synchronously
  (block entries as random line writes, page entries as sequential page
  writes — the "redo page coalescing" row of Table II).
* The *apply* of that checkpoint (copying redo entries to their canonical
  addresses) proceeds in the background; only if it has not finished by
  the *next* commit does the system stall for it. Growing caches mean
  bigger flushes and longer applies, which is why ThyNVM's overhead grows
  fastest in the cache-size sweep (Fig 15): "this is due to it using the
  redo-buffer across multiple epochs leading to greater pressure and
  shorter checkpoints".

Pages are promoted from block tracking when enough of their lines are
written ("mixed checkpoint granularity ... can lead to good NVM row buffer
usage for workloads with high spatial locality"). Overflow of both tables
forces an early commit. As in the paper's methodology, the redo buffer is
allocated in NVM (no DRAM cache layer) and cache snooping is free.
"""

from repro.baselines.base import CrashConsistencyScheme, TranslationTable
from repro.common.address import PAGE_SIZE, page_address
from repro.mem.nvm import AccessCategory


class ThyNvm(CrashConsistencyScheme):
    """Mixed block/page redo logging with single-commit overlap."""

    name = "thynvm"

    #: Lines written within a page before it is promoted to a page entry.
    PROMOTE_THRESHOLD = 4

    def __init__(
        self,
        system,
        block_entries=2048,
        page_entries=4096,
        table_assoc=16,
    ):
        super().__init__(system)
        self.block_table = TranslationTable(
            block_entries, table_assoc, granularity_bytes=64
        )
        self.page_table = TranslationTable(
            page_entries, table_assoc, granularity_bytes=PAGE_SIZE
        )
        #: Lines written per block-tracked page (promotion bookkeeping).
        self._page_line_counts = {}
        #: Durable redo-region contents: line addr -> newest token.
        self.redo_contents = {}
        self._apply_done_at = 0
        self._last_commit = -1

    # ------------------------------------------------------------------
    # store path: dual-granularity write-set tracking
    # ------------------------------------------------------------------

    def on_store(self, core, line, now):
        """Dual-granularity tracking with promotion; exhaustion commits early."""
        page = page_address(line.addr)
        if self.page_table.lookup(page) is not None:
            return 0
        if self.block_table.lookup(line.addr) is not None:
            return 0
        count = self._page_line_counts.get(page, 0) + 1
        if count >= self.PROMOTE_THRESHOLD and self.page_table.insert(page):
            self._drop_block_entries(page)
            self.stats.add("thynvm.page_promotions")
            return 0
        if self.block_table.insert(line.addr):
            self._page_line_counts[page] = count
            return 0
        # Block table full: relieve the pressure by promoting the most
        # heavily staged pages to page entries, freeing their block slots.
        while self._promote_fullest_page():
            if self.block_table.insert(line.addr):
                self._page_line_counts[page] = count
                return 0
        # Both granularities exhausted: abort the epoch prematurely.
        self.stats.add("commits.forced")
        stall = self._commit(now)
        if not self.block_table.insert(line.addr):
            raise AssertionError("translation table full immediately after commit")
        self._page_line_counts[page] = 1
        return stall

    def _promote_fullest_page(self):
        """Promote the page with the most staged blocks; False if impossible."""
        if not self._page_line_counts:
            return False
        page = max(self._page_line_counts, key=self._page_line_counts.get)
        if not self.page_table.insert(page):
            return False
        self._drop_block_entries(page)
        self.stats.add("thynvm.pressure_promotions")
        return True

    def _drop_block_entries(self, page):
        for line_addr in range(page, page + PAGE_SIZE, 64):
            self.block_table.remove(line_addr)
        self._page_line_counts.pop(page, None)

    # ------------------------------------------------------------------
    # eviction path: into the redo region at the tracked granularity
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """Divert the write into the redo region at its tracked granularity."""
        self.redo_contents[line_addr] = token
        page = page_address(line_addr)
        if self.page_table.lookup(page) is not None:
            # Page-tracked data lands in row-buffer-friendly page slots;
            # charge a line's share of a sequential page write.
            _completion, stall = self.controller.bulk_write(
                64, now, AccessCategory.WRITEBACK
            )
            return stall
        _completion, stall = self.controller.write_line(
            line_addr, now, AccessCategory.WRITEBACK
        )
        return stall

    def fill_token(self, line_addr):
        """Snoop the redo region for the newest copy of the line."""
        return self.redo_contents.get(line_addr)

    # ------------------------------------------------------------------
    # commit: synchronous flush, overlapped apply
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Synchronous flush into the redo region; apply overlaps execution."""
        return self._commit(now)

    def _commit(self, now):
        stall = self.system.handler_stall()
        # (a) The previous checkpoint's apply must be finished before its
        # redo-region slots can be reused.
        if self._apply_done_at > now:
            waited = self._apply_done_at - now
            stall += waited
            self.stats.add("thynvm.apply_wait_cycles", waited)
        # (b) Flush dirty data into the redo region, synchronously.
        stall += self._flush_all_dirty(now + stall)
        # (c) The checkpoint is durable in the redo region: commit.
        for line_addr, token in self.redo_contents.items():
            self.controller.write_token(line_addr, token)
        self._last_commit = self._commit_now()
        # (d) Apply in the background, overlapping the next epoch: redo
        # entries are copied to their canonical locations as posted
        # traffic; page entries move as module-local page copies.
        apply_start = now + stall
        completion = apply_start
        controller = self.controller
        applied_pages = set()
        for line_addr in self.redo_contents:
            page = page_address(line_addr)
            if self.page_table.lookup(page) is not None:
                if page not in applied_pages:
                    applied_pages.add(page)
                    completion, _s = controller.bulk_copy(
                        PAGE_SIZE, apply_start, backpressure=False
                    )
            else:
                completion, _s = controller.log_read_line(
                    line_addr, apply_start, backpressure=False
                )
                completion, _s = controller.write_line(
                    line_addr, apply_start, AccessCategory.RANDOM, backpressure=False
                )
        self._apply_done_at = completion
        self.stats.add("thynvm.entries_applied", len(self.redo_contents))
        self.stats.add("thynvm.pages_applied", len(applied_pages))
        self.redo_contents.clear()
        self.block_table.clear()
        self.page_table.clear()
        self._page_line_counts.clear()
        return stall

    def finalize(self, now):
        """Drain posted writes so end-of-run timing is comparable."""
        return self.controller.drain(now)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self):
        """The redo region holds only uncommitted data; memory is consistent."""
        return self.controller.snapshot_image(), self._last_commit
