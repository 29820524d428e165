"""FRM: undo-logging, high-frequency checkpointing (§II-B, Fig 3b).

The representative of the hardware undo-logging family (FRM and the other
1–10 ms checkpoint designs the paper cites). Its two costs:

* **Read-log-modify per dirty write-back**: the undo data must first be
  read from the canonical address, persisted into the undo log, and only
  then may the new data be written in place. The undo *reads* and in-place
  writes are random; we grant the log writes the paper's coalescing
  optimization (grouped into row-sized bursts), but the read-modify random
  traffic still dominates — FRM has the highest random IOPS in Fig 12.
* **Synchronous flush every epoch**: only one checkpoint can be in flight,
  so every dirty line must be flushed, with the same read-log-modify
  sequence, before execution resumes.

No translation table: write-backs land at canonical addresses, so there is
no overflow and exactly one commit per epoch (Fig 11's "undo-based
approaches do not suffer from this problem").
"""

from repro.baselines.base import CrashConsistencyScheme
from repro.core.undo import ENTRY_BYTES, UndoEntry
from repro.mem.log_region import LogRegion
from repro.mem.nvm import AccessCategory


class Frm(CrashConsistencyScheme):
    """Single-epoch undo logging with read-log-modify write-backs."""

    name = "frm"

    #: Undo log writes are grouped into row-sized bursts.
    LOG_COALESCE_ENTRIES = 28  # 2 KB / 72 B

    def __init__(self, system):
        super().__init__(system)
        self.log = LogRegion(entry_bytes=ENTRY_BYTES, stats=self.stats)
        self.epoch_index = 0
        self._pending_log_entries = 0
        self._last_commit = -1

    # ------------------------------------------------------------------
    # the read-log-modify sequence
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """The read-log-modify sequence: undo read, log append, in-place write."""
        stall = 0
        # (1) Read the undo data from its canonical address (random read).
        old_token = self.controller.read_token(line_addr)
        _completion, s = self.controller.log_read_line(line_addr, now)
        stall += s
        # (2) Persist the undo entry (coalesced into bursts).
        entry = UndoEntry(
            line_addr, old_token, self.epoch_index, self.epoch_index + 1
        )
        self.log.append(entry)
        self._pending_log_entries += 1
        if self._pending_log_entries >= self.LOG_COALESCE_ENTRIES:
            _completion, s = self.controller.bulk_write(
                self._pending_log_entries * ENTRY_BYTES, now + stall
            )
            stall += s
            self._pending_log_entries = 0
        # (3) Write the new data in place.
        _completion, s = self.controller.writeback(
            line_addr, token, now + stall, category=AccessCategory.WRITEBACK
        )
        return stall + s

    # ------------------------------------------------------------------
    # synchronous per-epoch flush and commit
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Synchronous flush (read-log-modify per line), then truncate the log."""
        stall = self.system.handler_stall()
        stall += self._flush_all_dirty(now)
        if self._pending_log_entries:
            _completion, s = self.controller.bulk_write(
                self._pending_log_entries * ENTRY_BYTES, now + stall
            )
            stall += s
            self._pending_log_entries = 0
            stall += self.controller.drain(now + stall)
        # Commit is atomic with persist: the undo log of this epoch is now
        # obsolete and is truncated.
        self.log.collect_garbage(self.epoch_index + 1)
        self._last_commit = self._commit_now()
        self.epoch_index += 1
        return stall

    def finalize(self, now):
        """Drain posted writes so end-of-run timing is comparable."""
        return self.controller.drain(now)

    # ------------------------------------------------------------------
    # recovery: revert the uncommitted epoch's in-place writes
    # ------------------------------------------------------------------

    def recover(self):
        """Apply the current epoch's undo entries backward (oldest wins)."""
        image = dict(self.controller.snapshot_image())
        # Torn superblock writes / bit flips in the log must be *detected*
        # (RecoveryError), never silently applied as undo data.
        self.log.verify()
        applied = 0
        for entry in self.log.iter_entries_backward():
            image[entry.addr] = entry.token
            applied += 1
        self.stats.add("frm.recovery_entries_applied", applied)
        return image, self._last_commit
