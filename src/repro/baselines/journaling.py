"""Journaling: redo logging with an NVM redo buffer (§II-B, Fig 3a).

Cache evictions are held in a redo buffer in NVM until the next commit; a
fixed-capacity translation table tracks which blocks live in the buffer so
that demand fills can snoop it. The two scalability problems the paper
attacks are both here:

* The table is fixed-size and associative — "when there are more writes,
  the buffer overflows more often. On each buffer overflow, the system is
  forced to abort the current epoch prematurely" (this drives Fig 11 and
  Fig 14).
* Commits are fully synchronous: flush every dirty line into the buffer,
  then read each entry back and write it to its canonical location —
  random IOPS throughout (Fig 12).

Configured per the paper's methodology: 6144 entries, 16-way
set-associative, 64 B granularity.
"""

from repro.baselines.base import CrashConsistencyScheme, TranslationTable
from repro.mem.nvm import AccessCategory


class Journaling(CrashConsistencyScheme):
    """Redo-logging WAL with a block-granularity translation table."""

    name = "journaling"

    def __init__(self, system, table_entries=6144, table_assoc=16):
        super().__init__(system)
        self.table = TranslationTable(table_entries, table_assoc, granularity_bytes=64)
        #: Durable redo-buffer contents: line addr -> newest token.
        self.redo_contents = {}
        self._last_commit = -1

    # ------------------------------------------------------------------
    # write-set tracking (store path)
    # ------------------------------------------------------------------

    def on_store(self, core, line, now):
        """Track the block in the translation table; overflow commits early."""
        if self.table.insert(line.addr):
            return 0
        # Table overflow: abort the epoch prematurely.
        self.stats.add("commits.forced")
        stall = self._commit(now)
        if not self.table.insert(line.addr):
            # A freshly cleared table always has room.
            raise AssertionError("translation table full immediately after commit")
        return stall

    # ------------------------------------------------------------------
    # eviction path: into the redo buffer, snooped on fills
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """Divert the write into the redo buffer (snooped on fills)."""
        self.redo_contents[line_addr] = token
        _completion, stall = self.controller.write_line(
            line_addr, now, AccessCategory.WRITEBACK
        )
        return stall

    def fill_token(self, line_addr):
        """Snoop the redo buffer for the newest copy of the line."""
        return self.redo_contents.get(line_addr)

    # ------------------------------------------------------------------
    # synchronous commit: flush, apply, drain
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Synchronous commit: flush caches, apply the redo buffer, drain."""
        return self._commit(now)

    def _commit(self, now):
        stall = self.system.handler_stall()
        stall += self._flush_all_dirty(now)
        # Apply: read every redo entry back and write it in place.
        controller = self.controller
        for line_addr, token in self.redo_contents.items():
            _c, s = controller.log_read_line(line_addr, now + stall)
            stall += s
            _c, s = controller.write_line(line_addr, now + stall, AccessCategory.RANDOM)
            stall += s
            controller.write_token(line_addr, token)
        self.stats.add("journal.entries_applied", len(self.redo_contents))
        self.redo_contents.clear()
        self.table.clear()
        stall += self.controller.drain(now + stall)
        self._last_commit = self._commit_now()
        return stall

    def finalize(self, now):
        """Drain posted writes so end-of-run timing is comparable."""
        return self.controller.drain(now)

    # ------------------------------------------------------------------
    # recovery: canonical memory is always at the last commit
    # ------------------------------------------------------------------

    def recover(self):
        """Discard the uncommitted redo buffer; memory is consistent as-is.

        Redo entries in the buffer all belong to the aborted epoch (the
        buffer is emptied at every commit), so recovery is trivial — the
        price was paid during execution.
        """
        return self.controller.snapshot_image(), self._last_commit
