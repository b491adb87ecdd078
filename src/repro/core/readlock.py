"""Read isolation: the BeginRead/EndRead protocol.

Reads of the guesstimated state go straight at the replica object, so
they must be isolated from concurrent writes applied by the
synchronizer ("All reads of obj performed between BeginRead(obj) and
EndRead(obj) are guaranteed to be isolated from concurrent writes to
obj through the synchronizer", paper section 2).

On the deterministic event loop everything is serialized anyway, but
a wall-clock scheduler can run the synchronizer on its own thread
(``LoopbackCluster.run_in_thread``), so the lock table here is
load-bearing for a reader on any other thread.  The table also validates
pairing (EndRead without BeginRead is a bug worth failing loudly on).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReadIsolationError


class ReadLockTable:
    """Per-object reentrant locks shared by readers and the synchronizer."""

    def __init__(self):
        self._locks: dict[str, threading.RLock] = {}
        self._depths: dict[str, int] = {}
        self._table_lock = threading.Lock()

    def _lock_for(self, unique_id: str) -> threading.RLock:
        with self._table_lock:
            if unique_id not in self._locks:
                self._locks[unique_id] = threading.RLock()
                self._depths[unique_id] = 0
            return self._locks[unique_id]

    def begin_read(self, unique_id: str) -> None:
        """Acquire the object's lock (reentrant)."""
        self._lock_for(unique_id).acquire()
        with self._table_lock:
            self._depths[unique_id] += 1

    def end_read(self, unique_id: str) -> None:
        """Release the lock; raises if there was no matching begin_read."""
        with self._table_lock:
            depth = self._depths.get(unique_id, 0)
            if depth <= 0:
                raise ReadIsolationError(
                    f"end_read({unique_id!r}) without matching begin_read"
                )
            self._depths[unique_id] = depth - 1
        self._locks[unique_id].release()

    def read_depth(self, unique_id: str) -> int:
        """Current nesting depth of reads on ``unique_id``."""
        with self._table_lock:
            return self._depths.get(unique_id, 0)

    @contextmanager
    def reading(self, unique_id: str) -> Iterator[None]:
        """Context-manager form of BeginRead/EndRead."""
        self.begin_read(unique_id)
        try:
            yield
        finally:
            self.end_read(unique_id)

    @contextmanager
    def writing(self, unique_ids: list[str]) -> Iterator[None]:
        """Used by the synchronizer to exclude readers while it writes."""
        ordered = sorted(set(unique_ids))  # stable order avoids deadlock
        locks = [self._lock_for(uid) for uid in ordered]
        for lock in locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(locks):
                lock.release()
