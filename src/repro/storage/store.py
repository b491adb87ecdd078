"""The durability facade the runtime talks to.

:class:`DurableStore` composes the WAL and the snapshot store into the
three operations the synchronizer needs:

* :meth:`~StorageBackend.append_commit` — log one committed round
  *before* the node acknowledges it (write-ahead ordering);
* :meth:`~StorageBackend.maybe_snapshot` — periodically checkpoint the
  committed state and compact covered WAL segments;
* :meth:`~StorageBackend.recover` — snapshot + WAL-suffix replay after
  a crash.

Two lighter implementations keep the simulator honest without IO:
:class:`MemoryStore` round-trips every record through the codec (so
anything unserializable fails fast) but keeps it in process memory, and
:class:`NullStorage` — the default — does nothing at all, preserving
the seed runtime's zero-IO behavior.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import StorageError
from repro.storage.codec import decode_line, encode_line, register_wire_type
from repro.storage.snapshot import SnapshotData, SnapshotStore
from repro.storage.wal import FSYNC_POLICIES, StorageStats, WriteAheadLog

#: One committed operation inside a CommitRecord:
#: (machine_id, op_number, encoded op payload, result, committed_at).
CommitEntry = tuple

StateProvider = Callable[[], dict]


@dataclass(frozen=True)
class CommitRecord:
    """One globally-ordered synchronization round's committed operations.

    ``entries`` are already sorted in the commit order (lexicographic
    (machineID, operation number), exactly as applied to ``sc``);
    ``completed_after`` is the global |C| after this round, which lets
    recovery re-derive its position in the completed sequence.
    """

    round_id: int
    entries: tuple[CommitEntry, ...]
    completed_after: int


def _revive_entries(value: list) -> tuple[CommitEntry, ...]:
    return tuple(tuple(entry) for entry in value)


register_wire_type(CommitRecord, entries=_revive_entries)


@dataclass
class RecoveredState:
    """What recovery hands back to the node.

    ``states`` + ``base_offset`` come from the snapshot (empty dict and
    0 when recovery starts from the log's beginning); ``commits`` is
    the ordered WAL suffix to replay on top.
    """

    states: dict[str, tuple[str, dict]]
    base_offset: int
    commits: list[CommitRecord]

    @property
    def replay_length(self) -> int:
        return len(self.commits)


class StorageBackend:
    """Interface (and no-op defaults) for the runtime's durability hooks."""

    def __init__(self, snapshot_interval: int = 0):
        if snapshot_interval < 0:
            raise StorageError("snapshot_interval must be >= 0")
        self.snapshot_interval = snapshot_interval
        self.stats = StorageStats()
        self._commits_since_snapshot = 0

    # -- hooks the synchronizer / node call --------------------------------------

    def append_commit(self, record: CommitRecord) -> None:
        """Log one committed round (called before the ApplyAck)."""

    def maybe_snapshot(self, provider: StateProvider, completed_count: int) -> bool:
        """Snapshot if the configured interval elapsed; returns True if taken.

        ``provider`` is called only when a snapshot is actually due, so
        the zero-IO default never pays for state serialization.
        """
        return False

    def rebase(self, states: dict, completed_count: int) -> None:
        """Reset durable state to a full snapshot received from the master.

        Used when a (re)joining node takes the full Welcome snapshot:
        whatever the log held before is superseded.
        """

    def recover(self) -> RecoveredState | None:
        """Rebuild committed state from snapshot + WAL, or None if empty."""
        return None

    def sync(self) -> None:
        """Force buffered records to stable storage."""

    def close(self) -> None:
        """Flush and release any resources (safe to recover() afterwards)."""

    # -- shared snapshot policy ---------------------------------------------------

    def _snapshot_due(self) -> bool:
        return (
            self.snapshot_interval > 0
            and self._commits_since_snapshot >= self.snapshot_interval
        )


class NullStorage(StorageBackend):
    """The simulator default: durability disabled, zero IO, zero state."""

    def __repr__(self) -> str:
        return "NullStorage()"


class MemoryStore(StorageBackend):
    """In-memory backend with real codec round-trips.

    Behaves exactly like :class:`DurableStore` from the runtime's point
    of view — commits are logged, snapshots bound the replay suffix,
    ``recover()`` rebuilds state — but nothing touches the filesystem.
    This is what simulator tests use to exercise crash recovery cheaply.
    """

    def __init__(self, snapshot_interval: int = 0):
        super().__init__(snapshot_interval)
        self._records: list[tuple[int, bytes]] = []
        self._next_index = 1
        self._snapshot: SnapshotData | None = None

    def append_commit(self, record: CommitRecord) -> None:
        line = encode_line(record)  # enforce wire fidelity
        self._records.append((self._next_index, line))
        self._next_index += 1
        self.stats.records_appended += 1
        self.stats.bytes_appended += len(line)
        self._commits_since_snapshot += 1

    def maybe_snapshot(self, provider: StateProvider, completed_count: int) -> bool:
        if not self._snapshot_due():
            return False
        self._take_snapshot(provider(), completed_count)
        return True

    def _take_snapshot(self, states: dict, completed_count: int) -> None:
        wal_index = self._next_index - 1
        self._snapshot = SnapshotData(
            states=dict(states), completed_count=completed_count, wal_index=wal_index
        )
        self._records = [(i, line) for i, line in self._records if i > wal_index]
        self._commits_since_snapshot = 0
        self.stats.snapshots_written += 1

    def rebase(self, states: dict, completed_count: int) -> None:
        self._take_snapshot(states, completed_count)

    def recover(self) -> RecoveredState | None:
        started = time.perf_counter()
        snapshot = self._snapshot
        wal_index = snapshot.wal_index if snapshot is not None else 0
        commits = [
            decode_line(line) for index, line in self._records if index > wal_index
        ]
        if snapshot is None and not commits:
            return None
        self.stats.recoveries += 1
        self.stats.last_replay_length = len(commits)
        self.stats.last_recovery_seconds = time.perf_counter() - started
        return RecoveredState(
            states=dict(snapshot.states) if snapshot is not None else {},
            base_offset=snapshot.completed_count if snapshot is not None else 0,
            commits=commits,
        )

    def __repr__(self) -> str:
        return f"MemoryStore(records={len(self._records)})"


class DurableStore(StorageBackend):
    """WAL + snapshots on disk, one directory per machine."""

    def __init__(
        self,
        directory: str,
        fsync: str = "interval",
        snapshot_interval: int = 0,
    ):
        super().__init__(snapshot_interval)
        self.directory = directory
        self.wal = WriteAheadLog(directory, fsync=fsync, stats=self.stats)
        self.snapshots = SnapshotStore(directory, stats=self.stats)

    def append_commit(self, record: CommitRecord) -> None:
        self.wal.append(record)
        self._commits_since_snapshot += 1

    def maybe_snapshot(self, provider: StateProvider, completed_count: int) -> bool:
        if not self._snapshot_due():
            return False
        self._take_snapshot(provider(), completed_count)
        return True

    def _take_snapshot(self, states: dict, completed_count: int) -> None:
        self.wal.sync()  # the snapshot must not be ahead of the log
        wal_index = self.wal.next_index - 1
        self.snapshots.save(states, completed_count, wal_index)
        self.wal.compact(wal_index)
        self._commits_since_snapshot = 0

    def rebase(self, states: dict, completed_count: int) -> None:
        self._take_snapshot(states, completed_count)

    def recover(self) -> RecoveredState | None:
        started = time.perf_counter()
        snapshot = self.snapshots.load()
        wal_index = snapshot.wal_index if snapshot is not None else 0
        commits = [
            record
            for index, record in self.wal.replay()
            if index > wal_index and isinstance(record, CommitRecord)
        ]
        if snapshot is None and not commits:
            return None
        self.stats.recoveries += 1
        self.stats.last_replay_length = len(commits)
        self.stats.last_recovery_seconds = time.perf_counter() - started
        return RecoveredState(
            states=dict(snapshot.states) if snapshot is not None else {},
            base_offset=snapshot.completed_count if snapshot is not None else 0,
            commits=commits,
        )

    def sync(self) -> None:
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return f"DurableStore({self.directory!r})"


def build_storage(config, machine_id: str) -> StorageBackend:
    """Build the backend selected by ``RuntimeConfig`` durability knobs."""
    durability = getattr(config, "durability", "off")
    if durability == "off":
        return NullStorage()
    if durability == "memory":
        return MemoryStore(snapshot_interval=config.snapshot_interval)
    if durability == "disk":
        if not config.data_dir:
            raise StorageError("durability='disk' requires data_dir to be set")
        if config.fsync_policy not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {config.fsync_policy!r}; "
                f"choose from {FSYNC_POLICIES}"
            )
        return DurableStore(
            os.path.join(config.data_dir, machine_id),
            fsync=config.fsync_policy,
            snapshot_interval=config.snapshot_interval,
        )
    raise StorageError(
        f"unknown durability mode {durability!r}; choose off, memory or disk"
    )
