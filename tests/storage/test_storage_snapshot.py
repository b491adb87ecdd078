"""Unit tests for atomic snapshots, on a directory and in memory
(``medium`` fixture, conftest.py)."""

import json

import pytest

from repro.errors import StorageError
from repro.storage.snapshot import SnapshotData, SnapshotStore

STATES = {
    "counter": ("Counter", {"value": 7}),
    "register": ("Register", {"value": "hello"}),
}


class TestSaveLoad:
    def test_round_trip(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=12, wal_index=34)

        loaded = store.load()
        assert loaded == SnapshotData(STATES, completed_count=12, wal_index=34)
        assert isinstance(loaded.states["counter"], tuple)

    def test_missing_snapshot_is_none(self, medium):
        assert SnapshotStore(medium).load() is None

    def test_save_replaces_previous(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=1, wal_index=1)
        store.save(STATES, completed_count=2, wal_index=9)

        assert store.load().completed_count == 2
        # Only one snapshot file ever exists.
        assert sorted(medium.names()) == ["snapshot.json"]

    def test_stats_counters(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=1, wal_index=1)
        store.save(STATES, completed_count=2, wal_index=2)
        assert store.stats.snapshots_written == 2
        assert store.stats.snapshot_bytes > 0
        assert store.stats.fsyncs == 4  # the file and its directory, twice


class TestCrashSafety:
    def test_leftover_tmp_file_is_swept(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=3, wal_index=3)
        # Simulate a crash between tmp-write and rename.
        stray = "snapshot.tmp.99999.1"
        medium.replace(stray, b"half-written garbage", "scratch")

        loaded = store.load()
        assert loaded.completed_count == 3
        assert stray not in medium.names()

    def test_corrupt_body_detected(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=3, wal_index=3)
        blob = json.loads(medium.read("snapshot.json"))
        blob["body"] = blob["body"].replace("7", "8", 1)
        medium.replace("snapshot.json", json.dumps(blob).encode(), "scratch")

        with pytest.raises(StorageError, match="CRC mismatch"):
            store.load()

    def test_malformed_file_detected(self, medium):
        medium.replace("snapshot.json", b"not json \xff", "scratch")
        with pytest.raises(StorageError, match="malformed"):
            SnapshotStore(medium).load()

    def test_truncated_file_detected(self, medium):
        store = SnapshotStore(medium)
        store.save(STATES, completed_count=3, wal_index=3)
        blob = medium.read("snapshot.json")
        medium.replace("snapshot.json", blob[: len(blob) // 2], "scratch")

        with pytest.raises(StorageError):
            store.load()


class TestSaveLoadInMemory(TestSaveLoad):
    in_memory = True


class TestCrashSafetyInMemory(TestCrashSafety):
    in_memory = True
