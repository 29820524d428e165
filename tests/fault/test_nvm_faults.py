"""NVM corruption injectors and log-region integrity verification."""

import pytest

from repro.common.errors import ConfigurationError, RecoveryError
from repro.core.recovery import recover_image
from repro.core.undo import UndoEntry
from repro.fault.nvm_faults import (
    INJECTORS,
    corrupt_superblock_header,
    flip_entry_bit,
    tear_superblock,
)
from repro.mem.log_region import LogRegion


def make_log(n_entries=8, per_block=4):
    log = LogRegion(entry_bytes=72, superblock_bytes=72 * per_block)
    log.append_many(
        [UndoEntry(i * 64, 100 + i, 0, 1 + i % 3) for i in range(n_entries)]
    )
    return log


class TestIntegrityBaseline:
    def test_clean_log_verifies(self):
        make_log().verify()

    def test_clean_log_recovers_with_verification(self):
        image, _report = recover_image({}, make_log(), persisted_eid=0)
        assert image  # entries applied, no RecoveryError

    def test_legitimate_torn_flush_stays_consistent(self):
        # The *crash-path* tear appends a prefix through the normal path:
        # bookkeeping matches the stored entries, so verification passes —
        # only out-of-band corruption is flagged.
        log = LogRegion(entry_bytes=72, superblock_bytes=72 * 4)
        entries = [UndoEntry(i * 64, i, 0, 1) for i in range(6)]
        log.append_many(entries[:3])  # the surviving prefix of the burst
        log.verify()


class TestInjectors:
    def test_tear_superblock_detected(self):
        log = make_log()
        detail = tear_superblock(log)
        assert "tore" in detail
        with pytest.raises(RecoveryError):
            log.verify()
        with pytest.raises(RecoveryError):
            recover_image({}, log, persisted_eid=0)

    def test_bitflip_token_detected(self):
        log = make_log()
        flip_entry_bit(log, "token", bit=3)
        with pytest.raises(RecoveryError):
            log.verify()

    def test_bitflip_valid_till_detected(self):
        log = make_log()
        flip_entry_bit(log, "valid_till", bit=1)
        with pytest.raises(RecoveryError):
            log.verify()

    def test_corrupt_header_detected(self):
        log = make_log()
        corrupt_superblock_header(log)
        with pytest.raises(RecoveryError):
            log.verify()

    def test_header_corruption_cannot_silently_skip_live_entries(self):
        # A downward header flip would make the backward scan early-stop
        # past live entries; verification must fire before that happens.
        log = make_log(n_entries=4, per_block=4)
        block = next(log.iter_superblocks_backward())
        block.max_valid_till = -1  # claims "everything here expired"
        with pytest.raises(RecoveryError):
            recover_image({}, log, persisted_eid=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="no field"):
            flip_entry_bit(make_log(), "voltage")

    def test_empty_log_has_nothing_to_corrupt(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=72 * 4)
        with pytest.raises(ConfigurationError, match="no superblock"):
            tear_superblock(log)

    def test_injector_suite_all_detected(self):
        for name, inject in INJECTORS.items():
            log = make_log()
            inject(log)
            with pytest.raises(RecoveryError):
                log.verify()

    def test_verification_can_be_disabled(self):
        # recover_image(verify=False) models pre-checksum recovery: the
        # corruption then flows straight into the rebuilt image.
        log = make_log()
        flip_entry_bit(log, "token", bit=3, entry_index=0)
        image, _report = recover_image({}, log, persisted_eid=0, verify=False)
        assert image  # silently mis-recovered, as expected without checks


class TestSnapshotRestore:
    @pytest.mark.parametrize("name", sorted(INJECTORS))
    def test_restore_undoes_injection(self, name):
        log = make_log()
        clean, _report = recover_image({}, log, persisted_eid=0)
        blocks = list(log.iter_superblocks_backward())
        snapshot = log.snapshot()
        INJECTORS[name](log)
        log.restore(snapshot)
        log.verify()
        assert list(log.iter_superblocks_backward()) == blocks  # same objects
        assert recover_image({}, log, persisted_eid=0)[0] == clean

    def test_snapshot_survives_repeated_restores(self):
        log = make_log()
        snapshot = log.snapshot()
        for name in sorted(INJECTORS):
            INJECTORS[name](log)
            log.restore(snapshot)
            log.verify()
        assert log.entry_count == 8

