"""Asynchronous Cache Scan (ACS) engine.

ACS is how PiCL persists a checkpoint without a stop-the-world flush
(§III-C): after epoch ``E`` commits, once the ACS-gap has elapsed, the
engine scans the LLC's EID array for valid lines tagged with the persisting
EID, snoops any dirty private copies, writes the matching dirty lines back
in place, and marks them clean. Lines whose undo entries already cover the
target need no write at all, which is why most ACS passes write little
(Fig 6's "only ACS3 actually writes data").

The scan itself touches only the on-chip EID/dirty arrays ("no tag checks
required") so it is charged no core-visible latency; its in-place writes
are posted and contend for NVM bandwidth like any other background write.
Per Fig 12's accounting, ACS in-place writes count as *random* IOPS.

Like the hardware, the software scan never walks the LLC: candidates come
from the incrementally maintained :class:`repro.cache.eid_index.EidIndex`
(the EID-array analogue), so a pass costs O(lines that might match), not
O(cache capacity). The candidates are regrouped into the brute-force
sweep's exact visit order and re-filtered by the same predicates, so the
scan stays bit-identical to the brute-force full-sweep oracle
— including the order in which writebacks hit the NVM channels and crash
windows fire.

Bulk ACS (§IV-C) checks a whole range of EIDs in one pass; it is the
mechanism that releases I/O writes early when persistency is on the
critical path.
"""

from repro.mem.nvm import AccessCategory


class AcsEngine:
    """Scans the LLC and persists one epoch's dirty lines in place."""

    def __init__(self, hierarchy, controller, stats, sub_block_mode=False):
        self.hierarchy = hierarchy
        self.controller = controller
        self.stats = stats
        self.sub_block_mode = sub_block_mode
        #: Run the original full LLC sweep instead of the EID index
        #: (differential oracle; see repro.cache.cache).
        self._brute_scan = hierarchy.llc._brute_scan
        #: Armed crash plan (None outside fault injection — see repro.fault).
        self.fault_plan = None

    def _matches(self, line, lo_eid, hi_eid):
        if self.sub_block_mode and line.sub_eids is not None:
            return any(lo_eid <= eid <= hi_eid for eid in line.sub_eids if eid >= 0)
        return lo_eid <= line.eid <= hi_eid

    def _iter_scan_lines(self, lo_eid, hi_eid):
        """Lines a scan over [lo_eid, hi_eid] must visit, in sweep order.

        Pulls the candidates from the EID index (sub-block lines plus the
        buckets in range), then walks each touched cache set in MRU order
        — sorted by set id, exactly how ``iter_lines`` would have reached
        them. The walk re-applies ``_matches`` on live state (a set is at
        most ``assoc`` lines), so snapshot staleness cannot change what
        gets scanned: syncs only ever mutate the line being visited.
        """
        llc = self.hierarchy.llc
        if self._brute_scan:
            return llc.iter_lines()
        candidates = llc.eid_index.candidates(lo_eid, hi_eid)
        if not candidates:
            return ()
        shift = llc._line_shift
        mask = llc._set_mask
        sets = llc._sets
        out = []
        for set_id in sorted(
            {(line.addr >> shift) & mask for line in candidates}
        ):
            out.extend(sets[set_id])
        return out

    def _scan_range(self, lo_eid, hi_eid, now):
        """Write back dirty lines tagged within [lo_eid, hi_eid].

        The scan is asynchronous hardware: its writes are enqueued without
        backpressure (they load the channel, slowing demand traffic, but
        never stall a core), so the returned stall is always zero.
        """
        writes = 0
        for line in self._iter_scan_lines(lo_eid, hi_eid):
            if line.eid < 0 and line.sub_eids is None:
                continue
            if not self._matches(line, lo_eid, hi_eid):
                continue
            self.hierarchy.sync_private_line(line.addr)
            if line.dirty:
                self.controller.writeback(
                    line.addr,
                    line.token,
                    now,
                    category=AccessCategory.RANDOM,
                    backpressure=False,
                )
                line.dirty = False
                writes += 1
                if self.fault_plan is not None:
                    # Crash window: this scan has written some of the
                    # epoch's lines in place but the PersistedEID marker
                    # has not advanced; recovery must still rebuild the
                    # *previous* checkpoint from the (durable) undo log.
                    self.fault_plan.notify("acs_scan")
        return writes, 0

    def occupancy(self, lo_eid, hi_eid):
        """Candidate count for a scan over [lo_eid, hi_eid].

        The hardware answers this from the EID array alone; the epoch-close
        path records it per pass. The brute oracle recounts by sweeping so
        the stat stays bit-identical under the oracle.
        """
        llc = self.hierarchy.llc
        if self._brute_scan:
            return sum(
                1
                for line in llc.iter_lines()
                if line.sub_eids is not None or lo_eid <= line.eid <= hi_eid
            )
        return llc.eid_index.occupancy(lo_eid, hi_eid)

    def scan(self, target_eid, now):
        """One ACS pass for ``target_eid``; returns (writes, stall)."""
        self.stats.add("acs.candidates", self.occupancy(target_eid, target_eid))
        writes, stall = self._scan_range(target_eid, target_eid, now)
        self.stats.add("acs.scans")
        self.stats.add("acs.writebacks", writes)
        return writes, stall

    def bulk_scan(self, lo_eid, hi_eid, now):
        """Bulk ACS: persist every epoch in [lo_eid, hi_eid] in one pass."""
        self.stats.add("acs.candidates", self.occupancy(lo_eid, hi_eid))
        writes, stall = self._scan_range(lo_eid, hi_eid, now)
        self.stats.add("acs.bulk_scans")
        self.stats.add("acs.writebacks", writes)
        return writes, stall
