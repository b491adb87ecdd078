"""Unit tests for the segmented write-ahead log.

Every class runs on a directory and, through its ``...InMemory``
subclass, on a memory medium (``medium`` fixture, conftest.py).
"""

import os
import stat

import pytest

from repro.errors import StorageError, WalCorruptionError
from repro.runtime import messages as msg
from repro.storage import wal as wal_module
from repro.storage.snapshot import SnapshotStore
from repro.storage.wal import StorageStats, WriteAheadLog


def make_records(n):
    return [msg.SyncComplete(i) for i in range(1, n + 1)]


def wal_files(medium):
    return sorted(name for name in medium.names() if name.startswith("wal-"))


def overwrite(medium, name, blob):
    medium.replace(name, bytes(blob), "damage.tmp")


@pytest.fixture
def small_segments(monkeypatch):
    """Roll a segment every couple of records instead of every 256 KB."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 120)


class TestAppendReplay:
    def test_round_trip(self, medium):
        wal = WriteAheadLog(medium)
        records = make_records(5)
        indices = [wal.append(r) for r in records]
        wal.close()

        assert indices == [1, 2, 3, 4, 5]
        replayed = WriteAheadLog(medium).replay()
        assert [r for _, r in replayed] == records
        assert [i for i, _ in replayed] == indices

    def test_empty_log_replays_empty(self, medium):
        wal = WriteAheadLog(medium)
        assert wal.replay() == []
        assert wal.next_index == 1

    def test_reopen_continues_indices(self, medium):
        wal = WriteAheadLog(medium)
        for r in make_records(3):
            wal.append(r)
        wal.close()

        wal2 = WriteAheadLog(medium)
        assert wal2.next_index == 4
        assert wal2.append(msg.SyncComplete(99)) == 4
        wal2.close()
        assert len(WriteAheadLog(medium).replay()) == 4

    def test_alien_file_rejected(self, medium):
        overwrite(medium, "wal-notanumber.log", b"junk")
        with pytest.raises(StorageError):
            WriteAheadLog(medium).segments()


@pytest.mark.usefixtures("small_segments")
class TestSegments:
    def test_rollover_by_size(self, medium):
        wal = WriteAheadLog(medium)
        for r in make_records(10):
            wal.append(r)
        wal.close()

        names = wal_files(medium)
        assert len(names) > 1
        # Segment names are the first record index, zero-padded.
        assert names[0] == "wal-0000000000000001.log"
        # Replay stitches all segments back together in order.
        replayed = WriteAheadLog(medium).replay()
        assert [i for i, _ in replayed] == list(range(1, 11))

    def test_segment_gap_detected(self, medium):
        wal = WriteAheadLog(medium)
        for r in make_records(10):
            wal.append(r)
        wal.close()
        names = wal_files(medium)
        assert len(names) >= 3
        medium.remove(names[1])  # lose a middle segment

        with pytest.raises(WalCorruptionError):
            WriteAheadLog(medium).replay()

    def test_compaction_removes_covered_segments(self, medium):
        stats = StorageStats()
        wal = WriteAheadLog(medium, stats=stats)
        for r in make_records(10):
            wal.append(r)
        before = len(wal_files(medium))
        assert before >= 3

        removed = wal.compact(through_index=wal.next_index - 1)
        assert removed == before - 1  # active segment always survives
        assert stats.segments_compacted == removed
        # Survivors still replay, indices intact.
        replayed = wal.replay()
        assert replayed and replayed[-1][0] == 10
        wal.close()

    def test_compaction_keeps_uncovered_segments(self, medium):
        wal = WriteAheadLog(medium)
        for r in make_records(10):
            wal.append(r)
        assert wal.compact(through_index=0) == 0
        assert len(wal.replay()) == 10
        wal.close()


class TestFsyncPolicies:
    def test_always_fsyncs_every_append(self, medium):
        stats = StorageStats()
        wal = WriteAheadLog(medium, fsync="always", stats=stats)
        for r in make_records(4):
            wal.append(r)
        # One per append, plus the new segment's directory entry.
        assert stats.fsyncs == 5
        wal.close()

    def test_interval_batches_fsyncs(self, medium, monkeypatch):
        monkeypatch.setattr(wal_module, "FSYNC_INTERVAL", 3)
        stats = StorageStats()
        wal = WriteAheadLog(medium, fsync="interval", stats=stats)
        for r in make_records(7):
            wal.append(r)
        # After records 3 (with the new segment's directory) and 6.
        assert stats.fsyncs == 3
        wal.close()
        assert stats.fsyncs == 4  # close syncs the straggler

    def test_never_skips_fsyncs(self, medium):
        stats = StorageStats()
        wal = WriteAheadLog(medium, fsync="never", stats=stats)
        for r in make_records(5):
            wal.append(r)
        wal.close()
        assert stats.fsyncs == 0
        # Data still lands on disk via flush.
        assert len(WriteAheadLog(medium).replay()) == 5

    def test_bad_policy_rejected(self, medium):
        with pytest.raises(StorageError):
            WriteAheadLog(medium, fsync="sometimes")

    def test_stats_count_bytes(self, medium):
        stats = StorageStats()
        wal = WriteAheadLog(medium, stats=stats)
        for r in make_records(3):
            wal.append(r)
        wal.close()
        assert stats.records_appended == 3
        stored = sum(len(medium.read(name)) for name in wal_files(medium))
        assert stats.bytes_appended == stored


class TestTailCorruption:
    """The acceptance-criteria damage modes: a torn or bit-flipped final
    record must be dropped cleanly, losing only the damaged tail."""

    def _write(self, medium, n):
        wal = WriteAheadLog(medium)
        for r in make_records(n):
            wal.append(r)
        wal.close()

    def _last_segment(self, medium):
        name = wal_files(medium)[-1]
        return name, medium.read(name)

    def test_truncated_final_record(self, medium):
        self._write(medium, 5)
        name, blob = self._last_segment(medium)
        overwrite(medium, name, blob[:-7])  # tear mid-record, newline lost

        stats = StorageStats()
        wal = WriteAheadLog(medium, stats=stats)
        replayed = wal.replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4]
        assert stats.truncated_tail_records >= 1

    def test_bit_flipped_final_record(self, medium):
        self._write(medium, 5)
        name, blob = self._last_segment(medium)
        blob = bytearray(blob)
        blob[-5] ^= 0x40  # flip a bit inside the last record's payload
        overwrite(medium, name, blob)

        replayed = WriteAheadLog(medium).replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4]

    def test_corrupt_crc_field(self, medium):
        self._write(medium, 3)
        name, blob = self._last_segment(medium)
        blob = bytearray(blob)
        # Damage the final record's CRC field (first byte after the
        # second-to-last newline).
        last_start = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        blob[last_start] = ord("z")
        overwrite(medium, name, blob)

        replayed = WriteAheadLog(medium).replay()
        assert [i for i, _ in replayed] == [1, 2]

    def test_append_after_tail_damage_truncates_garbage(self, medium):
        self._write(medium, 5)
        name, blob = self._last_segment(medium)
        overwrite(medium, name, blob[:-7])

        wal = WriteAheadLog(medium)
        assert wal.open_for_append() == 5  # record 5 was torn away
        wal.append(msg.SyncComplete(50))
        wal.close()

        replayed = WriteAheadLog(medium).replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4, 5]
        assert replayed[-1][1] == msg.SyncComplete(50)

    @pytest.mark.usefixtures("small_segments")
    def test_mid_log_corruption_raises(self, medium):
        self._write(medium, 10)
        names = wal_files(medium)
        assert len(names) >= 3
        blob = bytearray(medium.read(names[1]))
        blob[len(blob) // 2] ^= 0xFF
        overwrite(medium, names[1], blob)

        with pytest.raises(WalCorruptionError):
            WriteAheadLog(medium).replay()

    def test_damage_spanning_multiple_tail_records(self, medium):
        self._write(medium, 6)
        name, blob = self._last_segment(medium)
        blob = bytearray(blob)
        # Flip a byte inside record 4's payload: 4, 5 and 6 all drop
        # (everything after the first damaged record is suspect).
        newlines = [i for i, b in enumerate(blob) if b == ord("\n")]
        record4_start = newlines[2] + 1
        blob[record4_start + 12] ^= 0x20
        overwrite(medium, name, blob)

        stats = StorageStats()
        replayed = WriteAheadLog(medium, stats=stats).replay()
        assert [i for i, _ in replayed] == [1, 2, 3]
        assert stats.truncated_tail_records == 3


class TestAppendReplayInMemory(TestAppendReplay):
    in_memory = True


class TestSegmentsInMemory(TestSegments):
    in_memory = True


class TestFsyncPoliciesInMemory(TestFsyncPolicies):
    in_memory = True


class TestTailCorruptionInMemory(TestTailCorruption):
    in_memory = True


class TestDirectorySync:
    """fsync(2) on a file does not make its directory entry durable: a
    new segment or a renamed snapshot needs the directory fsynced too."""

    @pytest.fixture
    def synced(self, monkeypatch):
        """What each ``os.fsync`` call synced: ``"file"`` or ``"dir"``."""
        kinds = []
        real_fsync = os.fsync

        def recording(fd):
            kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        return kinds

    def test_steady_appends_sync_only_the_file(self, tmp_path, synced):
        wal = WriteAheadLog(str(tmp_path), fsync="always")
        for record in make_records(3):
            wal.append(record)
        assert synced == ["file", "dir", "file", "file"]  # first: new segment
        wal.close()

    @pytest.mark.usefixtures("small_segments")
    def test_segment_roll_syncs_directory_under_always(self, tmp_path, synced):
        wal = WriteAheadLog(str(tmp_path), fsync="always")
        wal.append(msg.SyncComplete(1))
        while len(wal_files(wal.medium)) < 2:
            del synced[:]
            wal.append(msg.SyncComplete(wal.next_index))
        # The append that rolled synced the new segment and its entry.
        assert synced == ["file", "dir"]
        wal.close()

    @pytest.mark.usefixtures("small_segments")
    def test_never_policy_syncs_nothing(self, tmp_path, synced):
        wal = WriteAheadLog(str(tmp_path), fsync="never")
        for record in make_records(10):
            wal.append(record)
        wal.compact(wal.next_index - 1)
        wal.close()
        assert len(wal_files(wal.medium)) == 1 and synced == []

    def test_snapshot_save_syncs_directory(self, tmp_path, synced):
        SnapshotStore(str(tmp_path)).save({}, completed_count=1, wal_index=1)
        assert synced == ["file", "dir"]
