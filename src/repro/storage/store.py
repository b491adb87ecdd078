"""The durability facade the runtime talks to.

:class:`DurableStore` composes the WAL and the snapshot store into the
three operations the synchronizer needs:

* :meth:`~StorageBackend.append_commit` — log one committed round
  *before* the node acknowledges it (write-ahead ordering);
* :meth:`~StorageBackend.maybe_snapshot` — periodically checkpoint the
  committed state and compact covered WAL segments;
* :meth:`~StorageBackend.recover` — snapshot + WAL-suffix replay after
  a crash.

``durability="disk"`` puts it on a directory and ``"memory"`` on a
:class:`~repro.storage.medium.MemoryMedium`, so the simulator crashes
and recovers the same log the daemons run, without IO.
:class:`NullStorage` — the default — does nothing at all, preserving
the seed runtime's zero-IO behavior.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import StorageError
from repro.storage.codec import register_wire_type
from repro.storage.medium import MemoryMedium, Medium
from repro.storage.snapshot import SnapshotData, SnapshotStore
from repro.storage.wal import StorageStats, WriteAheadLog

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

    def __init__(self) -> None:
        self.stats = StorageStats()

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

    def close(self) -> None:
        """Flush and release any resources (safe to recover() afterwards)."""


class NullStorage(StorageBackend):
    """The simulator default: durability disabled, zero IO, zero state."""

    def __repr__(self) -> str:
        return "NullStorage()"


class DurableStore(StorageBackend):
    """WAL + snapshots on one medium: a directory path, or a
    :class:`~repro.storage.medium.MemoryMedium`."""

    def __init__(
        self,
        location: str | Medium,
        fsync: str = "interval",
        snapshot_interval: int = 0,
    ):
        super().__init__()
        if snapshot_interval < 0:
            raise StorageError("snapshot_interval must be >= 0")
        self.snapshot_interval = snapshot_interval
        self._commits_since_snapshot = 0
        self.wal = WriteAheadLog(location, fsync=fsync, stats=self.stats)
        self.medium = self.wal.medium
        self.snapshots = SnapshotStore(self.medium, stats=self.stats)

    def append_commit(self, record: CommitRecord) -> None:
        self.wal.append(record)
        self._commits_since_snapshot += 1

    def maybe_snapshot(self, provider: StateProvider, completed_count: int) -> bool:
        if not (
            self.snapshot_interval > 0
            and self._commits_since_snapshot >= self.snapshot_interval
        ):
            return False
        self.rebase(provider(), completed_count)
        return True

    def rebase(self, states: dict, completed_count: int) -> None:
        self.wal.sync()  # the snapshot must not be ahead of the log
        wal_index = self.wal.next_index - 1
        self.snapshots.save(states, completed_count, wal_index)
        self.wal.compact(wal_index)
        self._commits_since_snapshot = 0

    def recover(self) -> RecoveredState | None:
        started = time.perf_counter()
        snapshot = self.snapshots.load()
        base = snapshot or SnapshotData(states={}, completed_count=0, wal_index=0)
        commits = [
            record for index, record in self.wal.replay() if index > base.wal_index
        ]
        if snapshot is None and not commits:
            return None
        self.stats.recoveries += 1
        self.stats.last_replay_length = len(commits)
        self.stats.last_recovery_seconds = time.perf_counter() - started
        return RecoveredState(dict(base.states), base.completed_count, commits)

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return f"DurableStore({self.medium!r})"


def build_storage(config, machine_id: str) -> StorageBackend:
    """Build the backend selected by ``RuntimeConfig`` durability knobs."""
    durability = getattr(config, "durability", "off")
    if durability == "off":
        return NullStorage()
    if durability == "memory":
        location: str | Medium = MemoryMedium()
    elif durability == "disk":
        if not config.data_dir:
            raise StorageError("durability='disk' requires data_dir to be set")
        location = os.path.join(config.data_dir, machine_id)
    else:
        raise StorageError(
            f"unknown durability mode {durability!r}; choose off, memory or disk"
        )
    return DurableStore(
        location,
        fsync=config.fsync_policy,
        snapshot_interval=config.snapshot_interval,
    )
