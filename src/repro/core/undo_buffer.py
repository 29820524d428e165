"""The on-chip undo buffer (cache-driven logging's coalescing stage).

Undo entries created by cross-epoch stores are collected here and written
to the NVM log in one sequential burst sized to the NVM row buffer (2 KB,
32 entries by default; "double buffering can be employed to accept further
incoming undo entries while the buffer is being flushed").

Entries of *mixed EIDs* co-mingle freely — that is the point of multi-undo
logging — so a single FIFO suffices. The companion bloom filter answers
"might this address have a pending entry?" for the eviction ordering
hazard; because the exact pending set is also kept (it is the buffer), the
model can measure the filter's false-positive rate precisely.
"""

from repro.common.errors import ConfigurationError
from repro.common.stats import StatCounters
from repro.core.bloom import BloomFilter


class UndoBuffer:
    """FIFO of undo entries with bloom-filtered hazard detection."""

    def __init__(
        self,
        log_region,
        controller,
        capacity_entries=32,
        flush_bytes=2048,
        bloom_bits=4096,
        bloom_hashes=2,
        stats=None,
    ):
        if capacity_entries <= 0:
            raise ConfigurationError("undo buffer needs positive capacity")
        self.log_region = log_region
        self.controller = controller
        self.capacity = capacity_entries
        self.flush_bytes = flush_bytes
        self.bloom = BloomFilter(bloom_bits, bloom_hashes)
        self.stats = stats if stats is not None else StatCounters()
        self._entries = []
        self._pending_addrs = set()
        #: Armed crash plan (None outside fault injection — see repro.fault).
        self.fault_plan = None
        self._entries_created = self.stats.slot("undo.entries_created")

    def __len__(self):
        return len(self._entries)

    @property
    def oldest_valid_till(self):
        """The valid_till of the oldest buffered entry (None when empty)."""
        if not self._entries:
            return None
        return self._entries[0].valid_till

    # ------------------------------------------------------------------
    # filling
    # ------------------------------------------------------------------

    def add(self, entry, now):
        """Buffer an undo entry; flushes when full. Returns stall cycles."""
        self._entries.append(entry)
        self._pending_addrs.add(entry.addr)
        self.bloom.add(entry.addr)
        self._entries_created.value += 1
        if len(self._entries) >= self.capacity:
            return self.flush(now)
        return 0

    # ------------------------------------------------------------------
    # hazard check (LLC eviction path)
    # ------------------------------------------------------------------

    def eviction_hazard(self, line_addr, now):
        """Flush first if the eviction may match a buffered entry.

        Returns stall cycles (0 when the filter says the address is clear).
        Tracks false positives by comparing against the exact pending set.
        """
        if not self._entries:
            return 0
        if not self.bloom.might_contain(line_addr):
            return 0
        if line_addr not in self._pending_addrs:
            self.stats.add("undo.bloom_false_positives")
        self.stats.add("undo.forced_flushes")
        return self.flush(now)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def flush(self, now, backpressure=True):
        """Write every buffered entry to the NVM log sequentially.

        Entries become durable (appended to the log region) the moment the
        flush is issued; timing-wise the burst is a posted sequential write
        and the caller only stalls on channel backpressure. With double
        buffering the buffer accepts new entries immediately.
        ``backpressure=False`` is used when the ACS engine (not a core)
        triggers the flush.
        """
        if not self._entries:
            return 0
        if self.fault_plan is not None:
            torn = self.fault_plan.flush_tear(len(self._entries))
            if torn is not None:
                # Torn flush: only a prefix of the burst reaches NVM
                # before the power fails. Safe by construction — the
                # in-place writes these entries guard are ordered after
                # the flush, so none of them has been issued yet.
                self.log_region.append_many(self._entries[:torn])
                self.fault_plan.trip("undo_flush")
        self.log_region.append_many(self._entries)
        n_entries = len(self._entries)
        burst = min(self.flush_bytes, n_entries * self.log_region.entry_bytes)
        _completion, stall = self.controller.bulk_write(
            burst, now, backpressure=backpressure
        )
        self.stats.add("undo.buffer_flushes")
        self.stats.add("undo.entries_flushed", n_entries)
        self._entries = []
        self._pending_addrs = set()
        self.bloom.clear()
        return stall

    def pending_entries(self):
        """Snapshot of the buffered (volatile, not yet durable) entries."""
        return list(self._entries)
