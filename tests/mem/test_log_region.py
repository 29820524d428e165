"""Log region: appends, superblocks, GC, exhaustion."""

import pytest

from repro.common.errors import ConfigurationError, LogExhaustedError
from repro.core.undo import UndoEntry
from repro.mem.log_region import LogRegion, SuperBlock


def entry(addr, token, valid_from, valid_till):
    return UndoEntry(addr, token, valid_from, valid_till)


class TestSuperBlock:
    def test_tracks_max_valid_till(self):
        block = SuperBlock()
        block.add(entry(0, 1, 0, 2))
        block.add(entry(64, 2, 1, 5))
        assert block.max_valid_till == 5

    def test_expiry(self):
        block = SuperBlock()
        block.add(entry(0, 1, 0, 2))
        assert block.expired(persisted_eid=2)
        assert not block.expired(persisted_eid=1)

    def test_len(self):
        block = SuperBlock()
        assert len(block) == 0
        block.add(entry(0, 1, 0, 1))
        assert len(block) == 1


class TestAppend:
    def test_counts_entries_and_bytes(self):
        log = LogRegion(entry_bytes=72)
        log.append(entry(0, 1, 0, 1))
        assert log.entry_count == 1
        assert log.used_bytes == 72
        assert log.stats.get("log.entries_appended") == 1
        assert log.stats.get("log.bytes_appended") == 72

    def test_superblock_rollover(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        for i in range(5):
            log.append(entry(i * 64, i, 0, 1))
        # Two entries per superblock -> three blocks for five entries.
        assert log.superblock_count == 3

    def test_append_many(self):
        log = LogRegion()
        log.append_many([entry(i * 64, i, 0, 1) for i in range(10)])
        assert log.entry_count == 10


class TestIteration:
    def test_backward_iteration_is_newest_first(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        entries = [entry(i * 64, i, 0, 1) for i in range(5)]
        log.append_many(entries)
        assert list(log.iter_entries_backward()) == list(reversed(entries))

    def test_superblocks_backward(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(i * 64, i, 0, i + 1) for i in range(4)])
        tills = [b.max_valid_till for b in log.iter_superblocks_backward()]
        assert tills == sorted(tills, reverse=True)


class TestGarbageCollection:
    def test_expired_head_blocks_reclaimed(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(i * 64, i, 0, 1) for i in range(4)])  # till=1
        log.append_many([entry(i * 64, i, 4, 5) for i in range(2)])  # till=5
        reclaimed = log.collect_garbage(persisted_eid=1)
        assert reclaimed == 4 * 72
        assert log.entry_count == 2

    def test_gc_stops_at_first_live_block(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(0, 1, 4, 5), entry(64, 2, 4, 5)])  # live
        log.append_many([entry(0, 3, 0, 1), entry(64, 4, 0, 1)])  # "old" but behind
        assert log.collect_garbage(persisted_eid=1) == 0

    def test_gc_updates_used_bytes(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(i * 64, i, 0, 1) for i in range(2)])
        before = log.used_bytes
        log.collect_garbage(persisted_eid=3)
        assert log.used_bytes == before - 2 * 72

    def test_gc_of_everything(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(i * 64, i, 0, 1) for i in range(6)])
        log.collect_garbage(persisted_eid=10)
        assert log.entry_count == 0
        assert len(log) == 0


class TestSnapshot:
    def test_restore_undoes_appends_and_gc_in_place(self):
        log = LogRegion(entry_bytes=72, superblock_bytes=144)
        log.append_many([entry(i * 64, i, 0, i + 1) for i in range(4)])
        snapshot = log.snapshot()
        log.collect_garbage(persisted_eid=2)
        log.append(entry(0, 9, 5, 6))
        log.restore(snapshot)
        assert log.entry_count == 4
        assert log.used_bytes == 4 * 72
        assert [e.token for e in log.iter_entries_backward()] == [3, 2, 1, 0]
        log.append(entry(0, 9, 5, 6))  # the open block is the restored one
        assert log.superblock_count == 3


class TestExhaustion:
    def test_default_grows_unbounded(self):
        log = LogRegion(capacity_bytes=144, entry_bytes=72)
        for i in range(10):
            log.append(entry(i * 64, i, 0, 1))
        assert log.stats.get("log.extensions") >= 1
        assert log.stats.get("log.exhaustion_interrupts") >= 1

    def test_hard_cap_raises(self):
        log = LogRegion(capacity_bytes=144, entry_bytes=72, max_capacity_bytes=288)
        log.append(entry(0, 1, 0, 1))
        log.append(entry(64, 2, 0, 1))
        log.append(entry(128, 3, 0, 1))
        log.append(entry(192, 4, 0, 1))
        with pytest.raises(LogExhaustedError):
            log.append(entry(256, 5, 0, 1))

    def test_custom_exhaustion_callback(self):
        calls = []

        def grant(region, needed):
            calls.append(needed)
            region.capacity_bytes += 10_000
            return True

        log = LogRegion(capacity_bytes=72, entry_bytes=72, on_exhausted=grant)
        log.append(entry(0, 1, 0, 1))
        log.append(entry(64, 2, 0, 1))
        assert calls == [72]


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            LogRegion(capacity_bytes=0)

    def test_bad_entry_size(self):
        with pytest.raises(ConfigurationError):
            LogRegion(entry_bytes=0)

    def test_superblock_must_fit_entry(self):
        with pytest.raises(ConfigurationError):
            LogRegion(entry_bytes=100, superblock_bytes=50)
