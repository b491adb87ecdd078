"""Named byte files: the only storage code that touches a filesystem.

The WAL and the snapshot store run unchanged on :class:`DiskMedium` (a
directory, one open append handle per file) or :class:`MemoryMedium`
(``{name: bytearray}`` for the simulator; its fsync only counts, and a
simulated process kill keeps every byte, as the page cache does).

A created, renamed or removed name is durable only once its directory
is fsynced (fsync(2)): the next file fsync syncs it too, so the fsync
policy rules names as it rules bytes (``never`` syncs neither), and
``replace`` syncs at once.  Methods that sync return the fsyncs issued.
"""

from __future__ import annotations

import os
from typing import BinaryIO


class Medium:
    """Fsync counting and directory bookkeeping; the in-memory no-ops."""

    #: a name was created, renamed or removed since the directory's last sync
    _entries_changed = False

    def fsync(self, name: str) -> int:
        """Make ``name``'s appended bytes (and a changed directory) stable."""
        return 1 + self._sync_entries()

    def _sync_entries(self) -> int:
        if not self._entries_changed:
            return 0
        self._sync_directory()
        self._entries_changed = False
        return 1

    def _sync_directory(self) -> None:
        pass

    def close(self, name: str) -> None:
        """Release ``name``'s append handle, if one is open."""


class DiskMedium(Medium):
    """Files in one directory (created if missing)."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._handles: dict[str, BinaryIO] = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def names(self) -> list[str]:
        return os.listdir(self.directory)

    def read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as handle:
            return handle.read()

    def append(self, name: str, data: bytes) -> None:
        """Append and flush to the OS, creating ``name`` if missing."""
        handle = self._handles.get(name)
        if handle is None:
            path = self._path(name)
            self._entries_changed |= not os.path.exists(path)
            handle = self._handles[name] = open(path, "ab")
        handle.write(data)
        handle.flush()

    def truncate(self, name: str, length: int) -> int:
        with open(self._path(name), "r+b") as handle:
            handle.truncate(length)
            os.fsync(handle.fileno())
        return 1

    def replace(self, name: str, data: bytes, scratch: str) -> int:
        """Atomically make ``data`` all of ``name`` by way of the file
        ``scratch``; durable on return."""
        scratch_path = self._path(scratch)
        with open(scratch_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch_path, self._path(name))
        self._entries_changed = True
        return 1 + self._sync_entries()

    def remove(self, name: str) -> None:
        os.remove(self._path(name))
        self._entries_changed = True

    def close(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()

    def fsync(self, name: str) -> int:
        os.fsync(self._handles[name].fileno())
        return super().fsync(name)

    def _sync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def __repr__(self) -> str:
        return f"DiskMedium({self.directory!r})"


class MemoryMedium(Medium):
    """Files as bytearrays in this process."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}

    def names(self) -> list[str]:
        return list(self._files)

    def read(self, name: str) -> bytes:
        return bytes(self._files[name])

    def append(self, name: str, data: bytes) -> None:
        if name not in self._files:
            self._files[name] = bytearray()
            self._entries_changed = True
        self._files[name] += data

    def truncate(self, name: str, length: int) -> int:
        del self._files[name][length:]
        return 1

    def replace(self, name: str, data: bytes, scratch: str) -> int:
        self._files[name] = bytearray(data)
        self._entries_changed = True
        return 1 + self._sync_entries()

    def remove(self, name: str) -> None:
        del self._files[name]
        self._entries_changed = True

    def __repr__(self) -> str:
        return f"MemoryMedium(files={len(self._files)})"


def as_medium(location: str | Medium) -> Medium:
    """A directory path means a :class:`DiskMedium` there."""
    return location if isinstance(location, Medium) else DiskMedium(location)
