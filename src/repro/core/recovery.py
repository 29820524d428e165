"""Crash recovery for multi-undo logging (§IV-B "Crash handling procedure").

On a power failure the OS:

1. reads the PersistedEID marker from NVM,
2. scans the undo log *backward* from the tail, applying every entry whose
   validity range covers the PersistedEID (scanning backward makes the
   oldest matching entry for an address win, because it is applied last),
3. stops early as soon as a superblock's max ValidTill drops to or below
   the PersistedEID — entry ValidTills are nondecreasing along the log
   (they are the SystemEID at creation time), so nothing older can match.

The same algorithm, restricted to a single epoch, recovers FRM.
"""

from repro.common.errors import RecoveryError


class RecoveryReport:
    """What a recovery pass did (for tests and the recovery-latency model)."""

    __slots__ = (
        "target_eid",
        "entries_scanned",
        "entries_applied",
        "superblocks_scanned",
        "stopped_early",
    )

    def __init__(self, target_eid):
        self.target_eid = target_eid
        self.entries_scanned = 0
        self.entries_applied = 0
        self.superblocks_scanned = 0
        self.stopped_early = False

    def __repr__(self):
        return (
            "RecoveryReport(target=%d, scanned=%d, applied=%d, "
            "superblocks=%d, stopped_early=%s)"
            % (
                self.target_eid,
                self.entries_scanned,
                self.entries_applied,
                self.superblocks_scanned,
                self.stopped_early,
            )
        )


def recover_image(nvm_image, log_region, persisted_eid, apply_limit=None, verify=True):
    """Rebuild the memory image of checkpoint ``persisted_eid``.

    ``nvm_image`` is the functional NVM contents at crash time (a dict);
    the returned dict is the recovered image. The input is not mutated.

    ``verify`` (default on) checks each examined superblock's checksum and
    header before trusting it — including the block that triggers the
    early stop, since a corrupted ``max_valid_till`` could otherwise
    silently skip live entries. Corruption raises
    :class:`~repro.common.errors.RecoveryError`; blocks beyond the early
    stop hold only expired entries and are never read, matching §IV-B.

    ``apply_limit`` stops the scan after that many entries have been
    applied — it models a *crash during recovery itself* (each applied
    entry is one in-place NVM write). Recovery is restartable: rerunning
    from the partially-applied image yields the same final image, which
    the fault harness asserts.
    """
    image = dict(nvm_image)
    report = RecoveryReport(persisted_eid)
    for block in log_region.iter_superblocks_backward():
        if verify:
            block.verify()
        if block.max_valid_till <= persisted_eid:
            report.stopped_early = True
            break
        report.superblocks_scanned += 1
        for entry in reversed(block.entries):
            report.entries_scanned += 1
            if entry.covers(persisted_eid):
                image[entry.addr] = entry.token
                report.entries_applied += 1
                if apply_limit is not None and report.entries_applied >= apply_limit:
                    return image, report
    return image, report


def check_recovered(recovered, reference_snapshot):
    """Raise :class:`RecoveryError` unless the images match token-exactly.

    Lines absent from either side read as token 0 (initial contents).
    """
    mismatches = {}
    for addr in set(recovered) | set(reference_snapshot):
        got = recovered.get(addr, 0)
        want = reference_snapshot.get(addr, 0)
        if got != want:
            mismatches[addr] = (got, want)
    if mismatches:
        sample = sorted(mismatches.items())[:5]
        raise RecoveryError(
            "recovered image diverges on %d lines, e.g. %s"
            % (len(mismatches), sample)
        )


def recovery_latency_cycles(report, timings, entry_bytes=72):
    """Estimate the recovery pass's NVM time (§IV-C "Recovery Latency").

    The log scan is sequential (bulk reads of superblocks); each applied
    entry costs one random in-place write.
    """
    scan_bytes = report.entries_scanned * entry_bytes
    scan = timings.bulk_read_cycles(max(scan_bytes, 1))
    apply_writes = report.entries_applied * timings.line_write_cycles
    return scan + apply_writes
