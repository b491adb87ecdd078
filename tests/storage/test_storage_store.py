"""Unit tests for the durability facade (NullStorage/DurableStore).

``TestDurableStore`` runs on a directory and ``TestDurableStoreInMemory``
on a memory medium (``medium`` fixture, conftest.py): ``durability=
"disk"`` and ``"memory"`` are one store over two media.
"""

import pytest

from repro.errors import SerializationError, StorageError
from repro.runtime.config import RuntimeConfig
from repro.storage import wal
from repro.storage.medium import DiskMedium, MemoryMedium
from repro.storage.store import CommitRecord, DurableStore, NullStorage, build_storage

STATES = {"counter": ("Counter", {"value": 3})}


def commit(round_id, completed_after):
    entry = ("m01", round_id, {"kind": "primitive", "args": []}, True, 0.5)
    return CommitRecord(round_id, (entry,), completed_after)


class TestNullStorage:
    def test_everything_is_a_noop(self):
        store = NullStorage()
        store.append_commit(commit(1, 1))
        called = []
        assert store.maybe_snapshot(lambda: called.append(1) or {}, 1) is False
        assert called == []  # provider never invoked when durability is off
        assert store.recover() is None
        store.close()
        assert store.stats.records_appended == 0


class TestDurableStore:
    """A fresh ``DurableStore`` on the same medium is the post-crash view."""

    def test_recover_empty_is_none(self, medium):
        assert DurableStore(medium).recover() is None

    def test_recover_replays_commits(self, medium):
        store = DurableStore(medium)
        for i in range(1, 4):
            store.append_commit(commit(i, i))
        store.close()

        recovered = DurableStore(medium).recover()
        assert recovered is not None
        assert recovered.base_offset == 0
        assert recovered.replay_length == 3
        assert [c.round_id for c in recovered.commits] == [1, 2, 3]
        assert recovered.commits[0] == commit(1, 1)

    def test_snapshot_bounds_replay(self, medium):
        store = DurableStore(medium, snapshot_interval=2)
        for i in range(1, 6):
            store.append_commit(commit(i, i))
            store.maybe_snapshot(lambda: STATES, i)
        store.close()
        # Snapshots fired after commits 2 and 4; only 5 remains to replay.
        recovered = DurableStore(medium).recover()
        assert recovered.states == STATES
        assert recovered.base_offset == 4
        assert recovered.replay_length == 1
        assert recovered.commits[0].round_id == 5

    def test_rebase_supersedes_history(self, medium):
        store = DurableStore(medium)
        for i in range(1, 4):
            store.append_commit(commit(i, i))
        store.rebase(STATES, completed_count=10)
        store.close()

        recovered = DurableStore(medium).recover()
        assert recovered.states == STATES
        assert recovered.base_offset == 10
        assert recovered.replay_length == 0

    def test_recovery_stats(self, medium):
        store = DurableStore(medium)
        store.append_commit(commit(1, 1))
        store.close()
        reopened = DurableStore(medium)
        reopened.recover()
        assert reopened.stats.recoveries == 1
        assert reopened.stats.last_replay_length == 1
        assert reopened.stats.last_recovery_seconds >= 0.0

    def test_snapshot_compacts_wal(self, medium, monkeypatch):
        monkeypatch.setattr(wal, "SEGMENT_MAX_BYTES", 200)
        store = DurableStore(medium, snapshot_interval=4)
        for i in range(1, 9):
            store.append_commit(commit(i, i))
            store.maybe_snapshot(lambda: STATES, i)
        assert store.stats.snapshots_written == 2
        assert store.stats.segments_compacted > 0
        store.close()

    def test_unserializable_commit_fails_fast(self, medium):
        store = DurableStore(medium)
        bad = CommitRecord(1, (("m01", 1, object(), True, 0.0),), 1)
        with pytest.raises(SerializationError):
            store.append_commit(bad)


class TestDurableStoreInMemory(TestDurableStore):
    in_memory = True


class TestBuildStorage:
    def test_off_is_null(self):
        assert isinstance(build_storage(RuntimeConfig(), "m01"), NullStorage)

    def test_memory(self):
        config = RuntimeConfig(durability="memory", snapshot_interval=5)
        store = build_storage(config, "m01")
        assert isinstance(store, DurableStore)
        assert isinstance(store.medium, MemoryMedium)
        assert store.snapshot_interval == 5

    def test_disk(self, tmp_path):
        config = RuntimeConfig(
            durability="disk",
            data_dir=str(tmp_path),
            fsync_policy="always",
            snapshot_interval=3,
        )
        store = build_storage(config, "m07")
        assert isinstance(store, DurableStore)
        assert isinstance(store.medium, DiskMedium)
        assert store.medium.directory.endswith("m07")
        assert store.wal.fsync == "always"

    def test_disk_requires_data_dir(self):
        with pytest.raises(StorageError, match="data_dir"):
            build_storage(RuntimeConfig(durability="disk"), "m01")

    def test_bad_policy_rejected(self, tmp_path):
        for durability in ("disk", "memory"):
            config = RuntimeConfig(
                durability=durability, data_dir=str(tmp_path), fsync_policy="bogus"
            )
            with pytest.raises(StorageError, match="fsync policy"):
                build_storage(config, "m01")

    def test_unknown_mode_rejected(self):
        with pytest.raises(StorageError, match="durability"):
            build_storage(RuntimeConfig(durability="paper"), "m01")
