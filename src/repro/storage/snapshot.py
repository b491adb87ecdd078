"""Committed-state snapshots with atomic replacement.

A snapshot bounds recovery replay: it captures the shared-object states
at a known point of the globally-ordered commit log, so recovery loads
the snapshot and replays only the WAL suffix past ``wal_index``.

Writes are crash-safe the standard way (the medium's ``replace``):
serialize to a temporary file, fsync it, rename it onto the final name
(atomic on POSIX) and fsync the directory.  A crash mid-write leaves either the old
snapshot or the new one, never a torn file; stray temporaries are
ignored (and cleaned) on load.  The body carries a CRC so silent
on-disk corruption is detected rather than trusted.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.medium import Medium, as_medium
from repro.storage.wal import StorageStats

_FILENAME = "snapshot.json"
_TMP_PREFIX = "snapshot.tmp"


@dataclass(frozen=True)
class SnapshotData:
    """One recovered snapshot.

    ``states`` is the serializable committed-store image
    (``{unique id: (type name, state dict)}``), ``completed_count`` the
    global |C| at the snapshot point, ``wal_index`` the last WAL record
    the snapshot covers (0 = none).
    """

    states: dict[str, tuple[str, dict]]
    completed_count: int
    wal_index: int


class SnapshotStore:
    """Owns the single latest snapshot file on a medium."""

    def __init__(self, location: str | Medium, stats: StorageStats | None = None):
        self.medium = as_medium(location)
        self.stats = stats if stats is not None else StorageStats()

    def save(
        self, states: dict[str, tuple[str, dict]], completed_count: int, wal_index: int
    ) -> None:
        """Atomically replace the snapshot."""
        body = {
            "states": {uid: list(entry) for uid, entry in states.items()},
            "completed_count": completed_count,
            "wal_index": wal_index,
        }
        body_text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body_text.encode("utf-8")) & 0xFFFFFFFF
        blob = json.dumps({"crc": f"{crc:08x}", "body": body_text}).encode("utf-8")
        self.stats.fsyncs += self.medium.replace(_FILENAME, blob, _TMP_PREFIX)
        self.stats.snapshots_written += 1
        self.stats.snapshot_bytes += len(blob)

    def load(self) -> SnapshotData | None:
        """The latest snapshot, or None if none was ever written."""
        names = self.medium.names()
        for name in names:  # leftovers of writes interrupted before the rename
            if name.startswith(_TMP_PREFIX):
                self.medium.remove(name)
        if _FILENAME not in names:
            return None
        blob = self.medium.read(_FILENAME)
        try:
            wrapper = json.loads(blob.decode("utf-8"))
            body_text = wrapper["body"]
            expected = int(wrapper["crc"], 16)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise StorageError(f"malformed {_FILENAME} on {self.medium}") from None
        actual = zlib.crc32(body_text.encode("utf-8")) & 0xFFFFFFFF
        if actual != expected:
            raise StorageError(
                f"snapshot CRC mismatch in {_FILENAME} on {self.medium}: "
                f"expected {expected:08x}, got {actual:08x}"
            )
        body = json.loads(body_text)
        states = {uid: tuple(entry) for uid, entry in body["states"].items()}
        return SnapshotData(
            states=states,
            completed_count=body["completed_count"],
            wal_index=body["wal_index"],
        )
