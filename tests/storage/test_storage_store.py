"""Unit tests for the durability facade (NullStorage/MemoryStore/DurableStore)."""

import pytest

from repro.errors import SerializationError, StorageError
from repro.runtime.config import RuntimeConfig
from repro.storage import wal
from repro.storage.store import (
    CommitRecord,
    DurableStore,
    MemoryStore,
    NullStorage,
    build_storage,
)

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
        store.sync()
        store.close()
        assert store.stats.records_appended == 0


class BackendContract:
    """Shared behavior MemoryStore and DurableStore must both satisfy."""

    def make(self, tmp_path, snapshot_interval=0):
        raise NotImplementedError

    def reopen(self, store, tmp_path):
        """A fresh handle on the same durable state (post-crash view)."""
        raise NotImplementedError

    def test_recover_empty_is_none(self, tmp_path):
        assert self.make(tmp_path).recover() is None

    def test_recover_replays_commits(self, tmp_path):
        store = self.make(tmp_path)
        for i in range(1, 4):
            store.append_commit(commit(i, i))
        store.close()

        recovered = self.reopen(store, tmp_path).recover()
        assert recovered is not None
        assert recovered.base_offset == 0
        assert recovered.replay_length == 3
        assert [c.round_id for c in recovered.commits] == [1, 2, 3]
        assert recovered.commits[0] == commit(1, 1)

    def test_snapshot_bounds_replay(self, tmp_path):
        store = self.make(tmp_path, snapshot_interval=2)
        for i in range(1, 6):
            store.append_commit(commit(i, i))
            store.maybe_snapshot(lambda: STATES, i)
        store.close()
        # Snapshots fired after commits 2 and 4; only 5 remains to replay.
        recovered = self.reopen(store, tmp_path).recover()
        assert recovered.states == STATES
        assert recovered.base_offset == 4
        assert recovered.replay_length == 1
        assert recovered.commits[0].round_id == 5

    def test_rebase_supersedes_history(self, tmp_path):
        store = self.make(tmp_path)
        for i in range(1, 4):
            store.append_commit(commit(i, i))
        store.rebase(STATES, completed_count=10)
        store.close()

        recovered = self.reopen(store, tmp_path).recover()
        assert recovered.states == STATES
        assert recovered.base_offset == 10
        assert recovered.replay_length == 0

    def test_recovery_stats(self, tmp_path):
        store = self.make(tmp_path)
        store.append_commit(commit(1, 1))
        store.close()
        reopened = self.reopen(store, tmp_path)
        reopened.recover()
        assert reopened.stats.recoveries == 1
        assert reopened.stats.last_replay_length == 1
        assert reopened.stats.last_recovery_seconds >= 0.0


class TestMemoryStore(BackendContract):
    def make(self, tmp_path, snapshot_interval=0):
        return MemoryStore(snapshot_interval=snapshot_interval)

    def reopen(self, store, tmp_path):
        return store  # memory backend survives in-process "crashes"

    def test_unserializable_commit_fails_fast(self):
        store = MemoryStore()
        bad = CommitRecord(1, (("m01", 1, object(), True, 0.0),), 1)
        with pytest.raises(SerializationError):
            store.append_commit(bad)


class TestDurableStore(BackendContract):
    def make(self, tmp_path, snapshot_interval=0):
        return DurableStore(
            str(tmp_path / "node"), snapshot_interval=snapshot_interval
        )

    def reopen(self, store, tmp_path):
        return DurableStore(str(tmp_path / "node"))

    def test_snapshot_compacts_wal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal, "SEGMENT_MAX_BYTES", 200)
        store = DurableStore(str(tmp_path / "node"), snapshot_interval=4)
        for i in range(1, 9):
            store.append_commit(commit(i, i))
            store.maybe_snapshot(lambda: STATES, i)
        assert store.stats.snapshots_written == 2
        assert store.stats.segments_compacted > 0
        store.close()


class TestBuildStorage:
    def test_off_is_null(self):
        assert isinstance(build_storage(RuntimeConfig(), "m01"), NullStorage)

    def test_memory(self):
        config = RuntimeConfig(durability="memory", snapshot_interval=5)
        store = build_storage(config, "m01")
        assert isinstance(store, MemoryStore)
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
        assert store.directory.endswith("m07")
        assert store.wal.fsync == "always"

    def test_disk_requires_data_dir(self):
        with pytest.raises(StorageError, match="data_dir"):
            build_storage(RuntimeConfig(durability="disk"), "m01")

    def test_bad_policy_rejected(self, tmp_path):
        config = RuntimeConfig(
            durability="disk", data_dir=str(tmp_path), fsync_policy="bogus"
        )
        with pytest.raises(StorageError):
            build_storage(config, "m01")

    def test_unknown_mode_rejected(self):
        with pytest.raises(StorageError, match="durability"):
            build_storage(RuntimeConfig(durability="paper"), "m01")
