"""PiCL: the paper's scheme — multi-undo logging + cache-driven logging + ACS.

The pieces and where they live:

* EID tags ride on every cache line (:mod:`repro.cache.line`); this scheme
  interprets them.
* Cross-epoch store detection and undo creation: :meth:`PiclScheme.on_store`
  (the Fig 7/Fig 8 state-transition hooks — note the hierarchy itself is
  unmodified, matching "PiCL makes no changes to the cache coherency
  protocol nor to cache eviction policy").
* The on-chip undo buffer and its bloom-filter hazard guard:
  :mod:`repro.core.undo_buffer`.
* Asynchronous cache scan: :mod:`repro.core.acs`.
* The multi-undo log in NVM: :mod:`repro.mem.log_region`.
* Recovery: :mod:`repro.core.recovery`.

Timing character: commits are cheap (bump the SystemEID, run the OS
boundary handler); persistency is deferred to ACS whose writes are posted;
the only core-visible stalls are NVM write-queue backpressure — which is
how the paper gets "less than 1% performance overhead".
"""

import dataclasses

from repro.baselines.base import CrashConsistencyScheme
from repro.common.eid import DEFAULT_EID_BITS
from repro.common.errors import SimulationError
from repro.common.units import KB, MB
from repro.core.acs import AcsEngine
from repro.core.epoch import EpochManager
from repro.core.granularity import make_policy
from repro.core.recovery import recover_image
from repro.core.undo import UndoEntry
from repro.core.undo_buffer import UndoBuffer
from repro.mem.log_region import LogRegion
from repro.mem.nvm import AccessCategory


@dataclasses.dataclass
class PiclConfig:
    """PiCL hardware parameters (paper defaults)."""

    #: Epochs between commit and persist (Fig 4 illustrates a gap of 3).
    acs_gap: int = 3

    #: Width of the hardware EID tag ("4-bit values are sufficient").
    eid_bits: int = DEFAULT_EID_BITS

    #: On-chip undo buffer capacity ("flushed when it is full (32 entries)").
    undo_buffer_entries: int = 32

    #: Flush burst size, matched to the NVM row buffer (2 KB).
    undo_flush_bytes: int = 2 * KB

    #: Bloom filter sizing ("4096 bits vs 32 entries capacity").
    bloom_bits: int = 4096
    bloom_hashes: int = 2

    #: Initial OS log allocation (§IV-B: "e.g., 128MB").
    log_capacity_bytes: int = 128 * MB

    #: Optional hard cap on log growth (None = OS always extends).
    log_max_bytes: int = None

    #: Modification-tracking granularity: 64 (default) or 16 (OpenPiton).
    tracking_granularity: int = 64

    #: Flush the undo buffer on every ACS ("to be conservative, we flush
    #: the undo buffer on every ACS in the evaluations").
    conservative_acs_flush: bool = True


class PiclScheme(CrashConsistencyScheme):
    """The full PiCL mechanism."""

    name = "picl"

    def __init__(self, system, config=None):
        super().__init__(system)
        self.config = config if config is not None else PiclConfig()
        self.epochs = EpochManager(self.config.acs_gap, self.config.eid_bits)
        self.granularity = make_policy(self.config.tracking_granularity)
        self.log = LogRegion(
            capacity_bytes=self.config.log_capacity_bytes,
            entry_bytes=self.granularity.entry_bytes,
            stats=self.stats,
            max_capacity_bytes=self.config.log_max_bytes,
        )
        self.buffer = UndoBuffer(
            self.log,
            self.controller,
            capacity_entries=self.config.undo_buffer_entries,
            flush_bytes=self.config.undo_flush_bytes,
            bloom_bits=self.config.bloom_bits,
            bloom_hashes=self.config.bloom_hashes,
            stats=self.stats,
        )
        self.acs = AcsEngine(
            self.hierarchy,
            self.controller,
            self.stats,
            sub_block_mode=self.granularity.sub_block_mode,
        )
        #: Optional I/O consistency buffer (attach_io_buffer).
        self.io_buffer = None
        self._store_seq = 0
        self._cross_epoch_stores = self.stats.slot("picl.cross_epoch_stores")
        # Both conditions are fixed for the scheme's lifetime; the store
        # hot path tests the combined flag instead of re-deriving them.
        self._plain_stores = (
            self.config.log_max_bytes is None
            and not self.granularity.sub_block_mode
        )

    def attach_io_buffer(self, io_buffer):
        """Register an IoConsistencyBuffer to be released on persists."""
        self.io_buffer = io_buffer

    # ------------------------------------------------------------------
    # cache-driven logging (Fig 7 / Fig 8 hooks)
    # ------------------------------------------------------------------

    def on_store(self, core, line, now):
        """Detect cross-epoch stores and capture undo data from the cache."""
        # Cheap same-epoch same-line store: the dominant case at 64 B
        # granularity — nothing to log, no cap to police, and no store
        # sequence to advance (only sub-block tracking reads it, and its
        # stores are never plain).
        if self._plain_stores and line.eid == self.epochs.system_eid:
            return 0
        self._store_seq += 1
        stall = 0
        if self.config.log_max_bytes is not None:
            # Must happen before the undo entry is created: a forced
            # persist advances the SystemEID, and this store belongs to
            # the new epoch.
            stall = self._relieve_log_pressure(now)
        system_eid = self.epochs.system_eid
        valid_from = self.granularity.needs_undo(line, system_eid, self._store_seq)
        if valid_from is None:
            return stall
        if valid_from < 0:
            # A clean line with no EID: the in-NVM value has been stable
            # since at least the PersistedEID (§IV-A).
            valid_from = self.epochs.persisted_eid
        entry = UndoEntry(line.addr, line.token, valid_from, system_eid)
        stall += self.buffer.add(entry, now + stall)
        self.granularity.apply_store(line, system_eid, self._store_seq)
        self._cross_epoch_stores.value += 1
        # Undo forwarding: keep the LLC's EID tag current so ACS and the
        # eviction path see the line's true epoch (Fig 8).
        llc_line = self.hierarchy.llc._tags.get(line.addr)
        if llc_line is None:
            raise SimulationError(
                "inclusion violated: stored line %#x absent from LLC" % line.addr
            )
        if llc_line is not line:
            self.granularity.apply_store(llc_line, system_eid, self._store_seq)
        return stall

    def vector_store_filter(self):
        """Store filter: the executing epoch's EID.

        With line-granularity tracking and no hard log cap, a store to a
        line already tagged with the executing epoch takes the cheap
        branch of :meth:`on_store`, which changes no state, so the replay
        may skip the call. A cross-epoch store (the line's
        first store this epoch) adds one undo entry, which may flush the
        buffer, and retags the line and its LLC copy; it runs
        :meth:`on_store` at its own cycle. Any other configuration (log
        cap, sub-block tracking) makes every store potentially visible,
        so every store runs :meth:`on_store`.
        """
        if self._plain_stores:
            return self.epochs.system_eid
        return False

    def _relieve_log_pressure(self, now):
        """Force a persist when a hard-capped log is nearly full.

        PiCL "is not limited by hardware resources but by memory storage
        for logging" (Fig 14): when the OS cannot extend the log any
        further, the only way to reclaim superblocks is to persist the
        outstanding epochs (bulk ACS) so their entries expire.
        """
        headroom = 2 * self.config.undo_buffer_entries * self.log.entry_bytes
        if self.log.used_bytes + headroom < self.config.log_max_bytes:
            return 0
        self.log.collect_garbage(self.epochs.persisted_eid)
        if self.log.used_bytes + headroom < self.config.log_max_bytes:
            return 0
        stall = self.persist_all_now(now)
        self.stats.add("picl.log_forced_persists")
        return stall

    # ------------------------------------------------------------------
    # eviction path: undo-before-in-place ordering
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """In-place write, preceded by a buffer flush on a bloom hit."""
        stall = self.buffer.eviction_hazard(line_addr, now)
        if self.fault_plan is not None:
            # Crash window: the hazard flush (if any) made the undo
            # entries durable, but the in-place data write has not been
            # issued — NVM still holds the old value.
            self.fault_plan.notify("pre_inplace")
        _completion, extra = self.controller.writeback(
            line_addr, token, now + stall, category=AccessCategory.WRITEBACK
        )
        return stall + extra

    # ------------------------------------------------------------------
    # epoch boundaries: commit cheaply, persist lazily
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Commit cheaply; kick ACS for the epoch trailing by the gap."""
        commit = self._commit_now()
        committed_eid, persist_target = self.epochs.commit()
        if committed_eid != commit:
            raise SimulationError(
                "commit id %d diverged from epoch id %d" % (commit, committed_eid)
            )
        stall = self.system.handler_stall()
        if persist_target is not None:
            stall += self._run_acs(persist_target, now)
        return stall

    def _run_acs(self, target_eid, now):
        """Persist ``target_eid``: flush the buffer, scan, mark durable.

        Everything here is the asynchronous engine's work — no
        backpressure stalls are charged to the cores.
        """
        stall = 0
        if self.config.conservative_acs_flush:
            self.buffer.flush(now, backpressure=False)
        else:
            oldest = self.buffer.oldest_valid_till
            if oldest is not None and oldest <= target_eid:
                self.buffer.flush(now, backpressure=False)
        _writes, scan_stall = self.acs.scan(target_eid, now)
        stall += scan_stall
        self.epochs.persist(target_eid)
        # Durable PersistedEID marker (one small in-place metadata write).
        self.stats.add("picl.persist_marker_writes")
        self.log.collect_garbage(target_eid)
        if self.io_buffer is not None:
            self.io_buffer.on_persist(target_eid, now)
        return stall

    # ------------------------------------------------------------------
    # bulk ACS (§IV-C): persist everything now, for I/O on the critical path
    # ------------------------------------------------------------------

    def persist_all_now(self, now):
        """Forcefully end the epoch and persist every outstanding commit.

        Returns the synchronous stall this costs — this is the escape
        hatch for I/O-critical workloads and clean shutdown.
        """
        commit = self._commit_now()
        committed_eid, _target = self.epochs.commit()
        if committed_eid != commit:
            raise SimulationError("commit id diverged during bulk ACS")
        stall = self.system.handler_stall()
        stall += self.buffer.flush(now)
        lo = self.epochs.persisted_eid + 1
        _writes, scan_stall = self.acs.bulk_scan(lo, committed_eid, now)
        stall += scan_stall
        for eid in range(lo, committed_eid + 1):
            self.epochs.persist(eid)
        self.log.collect_garbage(self.epochs.persisted_eid)
        stall += self.controller.drain(now + stall)
        if self.io_buffer is not None:
            self.io_buffer.on_persist(self.epochs.persisted_eid, now)
        self.stats.add("picl.bulk_acs")
        return stall

    def finalize(self, now):
        """End of run: drain posted traffic (kept comparable across schemes)."""
        stall = self.buffer.flush(now)
        return stall + self.controller.drain(now + stall)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self):
        """OS crash-handling procedure (§IV-B)."""
        image, report = recover_image(
            self.controller.snapshot_image(), self.log, self.epochs.persisted_eid
        )
        self.last_recovery_report = report
        return image, self.epochs.persisted_eid
