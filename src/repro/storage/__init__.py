"""Durability subsystem: write-ahead log, snapshots, crash recovery.

The simulated runtime keeps everything in memory, so a crashed node
loses its committed state ``sc``, its pending list ``P`` and its
position in the completed sequence ``C``.  This package provides the
standard substrate for surviving that: a durable log of the
globally-ordered committed operations plus periodic snapshots.

* :mod:`repro.storage.codec` — registry-based deterministic JSON-lines
  serializer for every protocol message and storage record (reusable by
  a real network transport).
* :mod:`repro.storage.medium` — the named byte files (on disk or in
  memory) the next two live on; the only code here that touches files.
* :mod:`repro.storage.wal` — segmented append-only log with per-record
  CRC32 framing, configurable fsync policy, and a tail-scan that drops
  torn/corrupt final records instead of failing.
* :mod:`repro.storage.snapshot` — atomic committed-state snapshots plus
  WAL segment compaction.
* :mod:`repro.storage.store` — the :class:`~repro.storage.store.DurableStore`
  facade the runtime talks to (``disk`` and ``memory`` differ only in
  the medium), plus a null one so the simulator default stays zero-IO.
"""

from repro.storage.codec import decode_line, decode_wire, encode_line, encode_wire
from repro.storage.snapshot import SnapshotData, SnapshotStore
from repro.storage.store import (
    CommitRecord,
    DurableStore,
    NullStorage,
    RecoveredState,
    StorageBackend,
    build_storage,
)
from repro.storage.wal import StorageStats, WriteAheadLog

__all__ = [
    "CommitRecord",
    "DurableStore",
    "NullStorage",
    "RecoveredState",
    "SnapshotData",
    "SnapshotStore",
    "StorageBackend",
    "StorageStats",
    "WriteAheadLog",
    "build_storage",
    "decode_line",
    "decode_wire",
    "encode_line",
    "encode_wire",
]
