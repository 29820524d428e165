"""NVM log region: allocation, superblocks, and garbage collection.

Write-ahead logs (PiCL's undo log, FRM's undo log) live in a contiguous
region of NVM allocated by the OS (§IV-B). The hardware appends entries;
when the region fills up, the OS is interrupted to extend it (allocations
need not be contiguous — we only track total capacity). Entries are grouped
into fixed-size *superblocks* whose expiration is the max ``valid_till`` of
their member entries, which is what makes garbage collection cheap.

The region is also the functional store recovery reads: entries appended
here are durable (appends happen when a buffer flush is handed to the
device, and crashes are injected at operation boundaries).
"""

from repro.common.errors import ConfigurationError, LogExhaustedError, RecoveryError
from repro.common.stats import StatCounters
from repro.common.units import KB, MB


def _entry_fingerprint(entry):
    """The per-entry term folded into a superblock's checksum."""
    return hash((entry.addr, entry.token, entry.valid_from, entry.valid_till))


class SuperBlock:
    """A 4 KB group of log entries sharing one expiration tag.

    Each block carries a checksum folded incrementally over its entries
    (the model of the per-block ECC/CRC a real NVM log would carry).
    Recovery verifies it before trusting a block's entries or its
    ``max_valid_till`` header, so torn superblock writes and bit flips are
    *detected* (:class:`repro.common.errors.RecoveryError`) instead of
    silently mis-recovered.
    """

    __slots__ = ("entries", "max_valid_till", "checksum")

    def __init__(self):
        self.entries = []
        self.max_valid_till = -1
        self.checksum = 0

    def add(self, entry):
        """Add an entry, tracking the block's max ValidTill."""
        self.entries.append(entry)
        self.checksum ^= _entry_fingerprint(entry)
        if entry.valid_till > self.max_valid_till:
            self.max_valid_till = entry.valid_till

    def verify(self):
        """Raise :class:`RecoveryError` unless the block is intact.

        Recomputes the checksum and the ``max_valid_till`` header from the
        entries and compares both against the stored values. Any torn
        write (entries missing relative to the sealed checksum) or bit
        flip (entry fields or header changed in place) shows up as a
        mismatch.
        """
        checksum = 0
        max_valid_till = -1
        for entry in self.entries:
            checksum ^= _entry_fingerprint(entry)
            if entry.valid_till > max_valid_till:
                max_valid_till = entry.valid_till
        if checksum != self.checksum:
            raise RecoveryError(
                "log superblock checksum mismatch (%d entries): torn write "
                "or corrupted entry" % len(self.entries)
            )
        if max_valid_till != self.max_valid_till:
            raise RecoveryError(
                "log superblock header corrupt: max ValidTill %d does not "
                "match entries (%d)" % (self.max_valid_till, max_valid_till)
            )

    def expired(self, persisted_eid):
        """A superblock is dead once no entry can cover the persisted EID.

        An entry with validity ``[valid_from, valid_till)`` is needed while
        recovery might target an epoch ``P`` with ``valid_from <= P <
        valid_till``; recovery only ever targets ``P = PersistedEID``, and
        the PersistedEID only moves forward, so ``valid_till <= persisted``
        means the entry (and a block of only such entries) is garbage.
        """
        return self.max_valid_till <= persisted_eid

    def __len__(self):
        return len(self.entries)


class LogRegion:
    """An OS-allocated, hardware-appended log region in NVM."""

    #: Default OS allocation (§IV-B example: "e.g., 128 MB").
    DEFAULT_CAPACITY = 128 * MB

    #: Default superblock size (§IV-B example: 4 KB blocks).
    DEFAULT_SUPERBLOCK_BYTES = 4 * KB

    def __init__(
        self,
        capacity_bytes=DEFAULT_CAPACITY,
        entry_bytes=72,
        superblock_bytes=DEFAULT_SUPERBLOCK_BYTES,
        stats=None,
        on_exhausted=None,
        max_capacity_bytes=None,
    ):
        if capacity_bytes <= 0:
            raise ConfigurationError("log capacity must be positive")
        if entry_bytes <= 0:
            raise ConfigurationError("entry size must be positive")
        if superblock_bytes < entry_bytes:
            raise ConfigurationError("superblock must hold at least one entry")
        self.capacity_bytes = capacity_bytes
        self.entry_bytes = entry_bytes
        self.superblock_bytes = superblock_bytes
        self.entries_per_superblock = superblock_bytes // entry_bytes
        self.used_bytes = 0
        self.stats = stats if stats is not None else StatCounters()
        self.on_exhausted = on_exhausted
        self.max_capacity_bytes = max_capacity_bytes
        self._superblocks = []
        self._open_block = None
        # Appends run on every flushed undo entry; pre-resolve the cells.
        self._entries_appended = self.stats.slot("log.entries_appended")
        self._bytes_appended = self.stats.slot("log.bytes_appended")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(self, entry):
        """Append one entry (must expose a ``valid_till`` attribute)."""
        size = self.entry_bytes
        if self.used_bytes + size > self.capacity_bytes:
            self._request_extension(size)
        block = self._open_block
        if block is None or len(block) >= self.entries_per_superblock:
            block = SuperBlock()
            self._open_block = block
            self._superblocks.append(block)
        block.add(entry)
        self.used_bytes += size
        self._entries_appended.value += 1
        self._bytes_appended.value += size

    def append_many(self, entries):
        """Append a batch of entries (one undo-buffer flush)."""
        for entry in entries:
            self.append(entry)

    def _request_extension(self, needed):
        """Interrupt the OS to extend the region (§IV-B)."""
        self.stats.add("log.exhaustion_interrupts")
        if self.on_exhausted is not None:
            granted = self.on_exhausted(self, needed)
            if granted:
                return
        if self.max_capacity_bytes is not None:
            new_capacity = min(self.capacity_bytes * 2, self.max_capacity_bytes)
            if new_capacity > self.capacity_bytes:
                self.capacity_bytes = new_capacity
                self.stats.add("log.extensions")
                return
            raise LogExhaustedError(
                "log region full at %d bytes (hard cap %d)"
                % (self.used_bytes, self.max_capacity_bytes)
            )
        # Unlimited growth by default: the OS always grants more memory.
        self.capacity_bytes *= 2
        self.stats.add("log.extensions")

    # ------------------------------------------------------------------
    # reading (recovery) and garbage collection
    # ------------------------------------------------------------------

    def iter_entries_backward(self):
        """Yield entries newest-first, the order the recovery scan uses."""
        for block in reversed(self._superblocks):
            for entry in reversed(block.entries):
                yield entry

    def iter_superblocks_backward(self):
        """Yield superblocks newest-first (recovery's early-stop check)."""
        return reversed(self._superblocks)

    def verify(self):
        """Verify every live superblock (see :meth:`SuperBlock.verify`)."""
        for block in self._superblocks:
            block.verify()

    def collect_garbage(self, persisted_eid):
        """Free every expired superblock; returns bytes reclaimed.

        Only whole superblocks are reclaimed, and only from the head of the
        log (a log is a queue: reclaiming the middle would fragment the
        contiguous region).
        """
        reclaimed = 0
        while self._superblocks and self._superblocks[0].expired(persisted_eid):
            block = self._superblocks.pop(0)
            if block is self._open_block:
                self._open_block = None
            reclaimed += len(block) * self.entry_bytes
        if reclaimed:
            self.used_bytes -= reclaimed
            self.stats.add("log.bytes_reclaimed", reclaimed)
        return reclaimed

    # ------------------------------------------------------------------
    # snapshots (crash-matrix runs shared between validations)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Capture the region's durable contents for :meth:`restore`.

        Covers everything in-place corruption can reach (see
        :mod:`repro.fault.nvm_faults`): the block list, each block's
        entry list, header and checksum, and every entry's fields.
        """
        blocks = [
            (block, list(block.entries), block.max_valid_till, block.checksum)
            for block in self._superblocks
        ]
        entries = [
            (entry, entry.addr, entry.token, entry.valid_from, entry.valid_till)
            for block in self._superblocks
            for entry in block.entries
        ]
        return self._open_block, self.used_bytes, self.capacity_bytes, blocks, entries

    def restore(self, snapshot):
        """Return the region to ``snapshot``, in place: the scheme and
        its undo buffer keep holding this object and its blocks."""
        self._open_block, self.used_bytes, self.capacity_bytes, blocks, entries = (
            snapshot
        )
        self._superblocks[:] = [block for block, _, _, _ in blocks]
        for block, block_entries, max_valid_till, checksum in blocks:
            block.entries[:] = block_entries
            block.max_valid_till = max_valid_till
            block.checksum = checksum
        for entry, addr, token, valid_from, valid_till in entries:
            entry.addr = addr
            entry.token = token
            entry.valid_from = valid_from
            entry.valid_till = valid_till

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def entry_count(self):
        """Total live entries across all superblocks."""
        return sum(len(block) for block in self._superblocks)

    @property
    def superblock_count(self):
        """Number of live superblocks."""
        return len(self._superblocks)

    def __len__(self):
        return self.entry_count
