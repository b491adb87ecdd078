"""Unit tests for the segmented write-ahead log."""

import os

import pytest

from repro.errors import StorageError, WalCorruptionError
from repro.runtime import messages as msg
from repro.storage import wal as wal_module
from repro.storage.wal import StorageStats, WriteAheadLog


def make_records(n):
    return [msg.SyncComplete(i) for i in range(1, n + 1)]


def wal_files(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("wal-"))


@pytest.fixture
def small_segments(monkeypatch):
    """Roll a segment every couple of records instead of every 256 KB."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 120)


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        records = make_records(5)
        indices = [wal.append(r) for r in records]
        wal.close()

        assert indices == [1, 2, 3, 4, 5]
        replayed = WriteAheadLog(str(tmp_path)).replay()
        assert [r for _, r in replayed] == records
        assert [i for i, _ in replayed] == indices

    def test_empty_log_replays_empty(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.replay() == []
        assert wal.next_index == 1

    def test_reopen_continues_indices(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for r in make_records(3):
            wal.append(r)
        wal.close()

        wal2 = WriteAheadLog(str(tmp_path))
        assert wal2.next_index == 4
        assert wal2.append(msg.SyncComplete(99)) == 4
        wal2.close()
        assert len(WriteAheadLog(str(tmp_path)).replay()) == 4

    def test_alien_file_rejected(self, tmp_path):
        (tmp_path / "wal-notanumber.log").write_bytes(b"junk")
        with pytest.raises(StorageError):
            WriteAheadLog(str(tmp_path)).segments()


@pytest.mark.usefixtures("small_segments")
class TestSegments:
    def test_rollover_by_size(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for r in make_records(10):
            wal.append(r)
        wal.close()

        names = wal_files(tmp_path)
        assert len(names) > 1
        # Segment names are the first record index, zero-padded.
        assert names[0] == "wal-0000000000000001.log"
        # Replay stitches all segments back together in order.
        replayed = WriteAheadLog(str(tmp_path)).replay()
        assert [i for i, _ in replayed] == list(range(1, 11))

    def test_segment_gap_detected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for r in make_records(10):
            wal.append(r)
        wal.close()
        names = wal_files(tmp_path)
        assert len(names) >= 3
        os.remove(tmp_path / names[1])  # lose a middle segment

        with pytest.raises(WalCorruptionError):
            WriteAheadLog(str(tmp_path)).replay()

    def test_compaction_removes_covered_segments(self, tmp_path):
        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), stats=stats)
        for r in make_records(10):
            wal.append(r)
        before = len(wal_files(tmp_path))
        assert before >= 3

        removed = wal.compact(through_index=wal.next_index - 1)
        assert removed == before - 1  # active segment always survives
        assert stats.segments_compacted == removed
        # Survivors still replay, indices intact.
        replayed = wal.replay()
        assert replayed and replayed[-1][0] == 10
        wal.close()

    def test_compaction_keeps_uncovered_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for r in make_records(10):
            wal.append(r)
        assert wal.compact(through_index=0) == 0
        assert len(wal.replay()) == 10
        wal.close()


class TestFsyncPolicies:
    def test_always_fsyncs_every_append(self, tmp_path):
        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), fsync="always", stats=stats)
        for r in make_records(4):
            wal.append(r)
        assert stats.fsyncs == 4
        wal.close()

    def test_interval_batches_fsyncs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "FSYNC_INTERVAL", 3)
        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), fsync="interval", stats=stats)
        for r in make_records(7):
            wal.append(r)
        assert stats.fsyncs == 2  # after records 3 and 6
        wal.close()
        assert stats.fsyncs == 3  # close syncs the straggler

    def test_never_skips_fsyncs(self, tmp_path):
        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), fsync="never", stats=stats)
        for r in make_records(5):
            wal.append(r)
        wal.close()
        assert stats.fsyncs == 0
        # Data still lands on disk via flush.
        assert len(WriteAheadLog(str(tmp_path)).replay()) == 5

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")

    def test_stats_count_bytes(self, tmp_path):
        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), stats=stats)
        for r in make_records(3):
            wal.append(r)
        wal.close()
        assert stats.records_appended == 3
        on_disk = sum(
            os.path.getsize(tmp_path / name) for name in wal_files(tmp_path)
        )
        assert stats.bytes_appended == on_disk


class TestTailCorruption:
    """The acceptance-criteria damage modes: a torn or bit-flipped final
    record must be dropped cleanly, losing only the damaged tail."""

    def _write(self, tmp_path, n):
        wal = WriteAheadLog(str(tmp_path))
        for r in make_records(n):
            wal.append(r)
        wal.close()

    def _last_segment(self, tmp_path):
        return tmp_path / wal_files(tmp_path)[-1]

    def test_truncated_final_record(self, tmp_path):
        self._write(tmp_path, 5)
        path = self._last_segment(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear mid-record, newline lost

        stats = StorageStats()
        wal = WriteAheadLog(str(tmp_path), stats=stats)
        replayed = wal.replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4]
        assert stats.truncated_tail_records >= 1

    def test_bit_flipped_final_record(self, tmp_path):
        self._write(tmp_path, 5)
        path = self._last_segment(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x40  # flip a bit inside the last record's payload
        path.write_bytes(bytes(blob))

        replayed = WriteAheadLog(str(tmp_path)).replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4]

    def test_corrupt_crc_field(self, tmp_path):
        self._write(tmp_path, 3)
        path = self._last_segment(tmp_path)
        blob = bytearray(path.read_bytes())
        # Damage the final record's CRC field (first byte after the
        # second-to-last newline).
        last_start = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        blob[last_start] = ord("z")
        path.write_bytes(bytes(blob))

        replayed = WriteAheadLog(str(tmp_path)).replay()
        assert [i for i, _ in replayed] == [1, 2]

    def test_append_after_tail_damage_truncates_garbage(self, tmp_path):
        self._write(tmp_path, 5)
        path = self._last_segment(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])

        wal = WriteAheadLog(str(tmp_path))
        assert wal.open_for_append() == 5  # record 5 was torn away
        wal.append(msg.SyncComplete(50))
        wal.close()

        replayed = WriteAheadLog(str(tmp_path)).replay()
        assert [i for i, _ in replayed] == [1, 2, 3, 4, 5]
        assert replayed[-1][1] == msg.SyncComplete(50)

    @pytest.mark.usefixtures("small_segments")
    def test_mid_log_corruption_raises(self, tmp_path):
        self._write(tmp_path, 10)
        names = wal_files(tmp_path)
        assert len(names) >= 3
        middle = tmp_path / names[1]
        blob = bytearray(middle.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        middle.write_bytes(bytes(blob))

        with pytest.raises(WalCorruptionError):
            WriteAheadLog(str(tmp_path)).replay()

    def test_damage_spanning_multiple_tail_records(self, tmp_path):
        self._write(tmp_path, 6)
        path = self._last_segment(tmp_path)
        blob = bytearray(path.read_bytes())
        # Flip a byte inside record 4's payload: 4, 5 and 6 all drop
        # (everything after the first damaged record is suspect).
        newlines = [i for i, b in enumerate(blob) if b == ord("\n")]
        record4_start = newlines[2] + 1
        blob[record4_start + 12] ^= 0x20
        path.write_bytes(bytes(blob))

        stats = StorageStats()
        replayed = WriteAheadLog(str(tmp_path), stats=stats).replay()
        assert [i for i, _ in replayed] == [1, 2, 3]
        assert stats.truncated_tail_records == 3
