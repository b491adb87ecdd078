"""Segmented append-only write-ahead log with CRC32 framing.

Layout: a directory of segment files named ``wal-<first index>.log``.
Each record is one text line::

    <crc32 of payload, 8 hex digits> <canonical JSON payload>\\n

Records carry monotonically increasing 1-based indices (implicit from
position).  A segment rolls over once it exceeds
:data:`SEGMENT_MAX_BYTES`.

Torn writes are a fact of life for a log that is appended during a
crash, so :meth:`WriteAheadLog.replay` treats damage in the *final*
segment's tail — a truncated last line, a bit-flipped CRC, malformed
JSON — as an interrupted append: the damaged suffix is dropped (and
physically truncated on the next :meth:`open_for_append`) and replay
succeeds with the surviving prefix.  Damage anywhere *before* the final
tail means lost history and raises :class:`~repro.errors.WalCorruptionError`.

Fsync policy:

* ``always``  — fsync after every append (durable, slow);
* ``interval`` — fsync every :data:`FSYNC_INTERVAL` appends and on
  :meth:`sync`/:meth:`close` (bounded loss window);
* ``never``   — OS-buffered only (fastest; a power cut may lose the
  un-synced suffix, which the tail-scan then drops cleanly).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import StorageError, WalCorruptionError
from repro.storage.codec import decode_line, encode_line

FSYNC_POLICIES = ("always", "interval", "never")
#: Appends between fsyncs under the ``interval`` policy.
FSYNC_INTERVAL = 8
#: A segment rolls over once it would grow past this many bytes.
SEGMENT_MAX_BYTES = 256_000

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass
class StorageStats:
    """Counters shared by the WAL, snapshot store and facade.

    Surfaced per node through :class:`repro.runtime.metrics.NodeMetrics`
    so experiments can report durability costs next to protocol
    metrics.
    """

    records_appended: int = 0
    bytes_appended: int = 0
    fsyncs: int = 0
    segments_created: int = 0
    segments_compacted: int = 0
    snapshots_written: int = 0
    snapshot_bytes: int = 0
    #: recovery telemetry (filled by the store facade)
    recoveries: int = 0
    last_replay_length: int = 0
    last_recovery_seconds: float = 0.0
    truncated_tail_records: int = 0


@dataclass(frozen=True)
class _Segment:
    path: str
    first_index: int


def _frame(payload: bytes) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + payload


def _unframe(line: bytes) -> bytes:
    """Return the payload of one framed line (without newline) or raise."""
    if len(line) < 10 or line[8:9] != b" ":
        raise WalCorruptionError("record too short or missing CRC separator")
    try:
        expected = int(line[:8], 16)
    except ValueError:
        raise WalCorruptionError("non-hex CRC field") from None
    payload = line[9:]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise WalCorruptionError(
            f"CRC mismatch: expected {expected:08x}, got {actual:08x}"
        )
    return payload


class WriteAheadLog:
    """Append-only segmented log of codec-registered records."""

    def __init__(
        self,
        directory: str,
        fsync: str = "interval",
        stats: StorageStats | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self.directory = directory
        self.fsync = fsync
        self.stats = stats if stats is not None else StorageStats()
        os.makedirs(directory, exist_ok=True)
        self._file = None  # open append handle for the active segment
        self._active: _Segment | None = None
        self._active_bytes = 0
        self._appends_since_sync = 0
        self._next_index: int | None = None  # lazy: set by open_for_append
        # Replay and open_for_append both scan the tail; damage on disk
        # must only be counted once until it is physically truncated.
        self._tail_damage_counted = False

    # -- segment discovery ------------------------------------------------------

    def segments(self) -> list[_Segment]:
        """All segment files, ordered by first record index."""
        found = []
        for name in os.listdir(self.directory):
            if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
                continue
            middle = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                first_index = int(middle)
            except ValueError:
                raise StorageError(f"alien file in WAL directory: {name}") from None
            found.append(_Segment(os.path.join(self.directory, name), first_index))
        return sorted(found, key=lambda segment: segment.first_index)

    def _segment_path(self, first_index: int) -> str:
        return os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{first_index:016d}{_SEGMENT_SUFFIX}"
        )

    # -- replay -----------------------------------------------------------------

    def _scan_segment(
        self, segment: _Segment, is_last: bool
    ) -> tuple[list[tuple[int, Any]], int]:
        """Decode one segment.

        Returns ``(records, good_bytes)`` where ``good_bytes`` is the
        byte offset of the first damaged record (== file size when the
        segment is clean).  Damage in the last segment truncates; damage
        elsewhere raises.
        """
        with open(segment.path, "rb") as handle:
            blob = handle.read()
        records: list[tuple[int, Any]] = []
        index = segment.first_index
        offset = 0
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:
                # Torn final write: no newline ever made it out.
                if not is_last:
                    raise WalCorruptionError(
                        f"unterminated record mid-log in {segment.path}"
                    )
                if not self._tail_damage_counted:
                    self.stats.truncated_tail_records += 1
                    self._tail_damage_counted = True
                return records, offset
            line = blob[offset:newline]
            try:
                records.append((index, decode_line(_unframe(line))))
            except Exception as exc:
                if not is_last:
                    raise WalCorruptionError(
                        f"corrupt record {index} mid-log in {segment.path}: {exc}"
                    ) from None
                # Tail damage: drop this record and everything after it.
                if not self._tail_damage_counted:
                    remaining = blob.count(b"\n", offset)
                    self.stats.truncated_tail_records += max(1, remaining)
                    self._tail_damage_counted = True
                return records, offset
            index += 1
            offset = newline + 1
        return records, offset

    def replay(self) -> list[tuple[int, Any]]:
        """All surviving records as ``(index, decoded object)`` pairs.

        Validates every segment; a damaged final tail is dropped (see
        module docstring), damage before it raises
        :class:`~repro.errors.WalCorruptionError`.
        """
        segments = self.segments()
        records: list[tuple[int, Any]] = []
        expected_next = None
        for position, segment in enumerate(segments):
            if expected_next is not None and segment.first_index != expected_next:
                raise WalCorruptionError(
                    f"segment gap: expected first index {expected_next}, "
                    f"found {segment.first_index} in {segment.path}"
                )
            is_last = position == len(segments) - 1
            segment_records, good_bytes = self._scan_segment(segment, is_last)
            if not is_last:
                del good_bytes  # clean by construction (else _scan raised)
            records.extend(segment_records)
            expected_next = segment.first_index + len(segment_records)
        return records

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        return iter(self.replay())

    # -- appending ---------------------------------------------------------------

    def open_for_append(self) -> int:
        """Prepare for appends; returns the next record index.

        Physically truncates any damaged tail found in the last segment
        so new appends never interleave with garbage.
        """
        segments = self.segments()
        next_index = 1
        if segments:
            last = segments[-1]
            for segment in segments[:-1]:
                clean_records, _ = self._scan_segment(segment, is_last=False)
                next_index = segment.first_index + len(clean_records)
            records, good_bytes = self._scan_segment(last, is_last=True)
            size = os.path.getsize(last.path)
            if good_bytes < size:
                with open(last.path, "r+b") as handle:
                    handle.truncate(good_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                    self.stats.fsyncs += 1
                self._tail_damage_counted = False  # damage is gone from disk
            next_index = last.first_index + len(records)
            self._active = last
            self._active_bytes = good_bytes
        self._next_index = next_index
        return next_index

    @property
    def next_index(self) -> int:
        if self._next_index is None:
            self.open_for_append()
        assert self._next_index is not None
        return self._next_index

    def _ensure_file(self) -> None:
        if self._file is not None:
            return
        if self._next_index is None:
            self.open_for_append()
        if self._active is None or self._active_bytes >= SEGMENT_MAX_BYTES:
            self._roll()
            return
        self._file = open(self._active.path, "ab")

    def _roll(self) -> None:
        """Start a fresh segment at the next record index."""
        if self._file is not None:
            self._flush(force=self.fsync != "never")
            self._file.close()
            self._file = None
        assert self._next_index is not None
        self._active = _Segment(
            self._segment_path(self._next_index), self._next_index
        )
        self._file = open(self._active.path, "ab")
        self._active_bytes = 0
        self.stats.segments_created += 1

    def append(self, record: Any) -> int:
        """Durably append one codec-registered record; returns its index."""
        self._ensure_file()
        assert self._file is not None and self._next_index is not None
        framed = _frame(encode_line(record)[:-1]) + b"\n"
        if self._active_bytes + len(framed) > SEGMENT_MAX_BYTES and self._active_bytes > 0:
            self._roll()
        self._file.write(framed)
        self._file.flush()
        self._active_bytes += len(framed)
        index = self._next_index
        self._next_index += 1
        self.stats.records_appended += 1
        self.stats.bytes_appended += len(framed)
        self._appends_since_sync += 1
        if self.fsync == "always" or (
            self.fsync == "interval"
            and self._appends_since_sync >= FSYNC_INTERVAL
        ):
            self._fsync()
        return index

    def _fsync(self) -> None:
        if self._file is None:
            return
        os.fsync(self._file.fileno())
        self.stats.fsyncs += 1
        self._appends_since_sync = 0

    def _flush(self, force: bool) -> None:
        if self._file is None:
            return
        self._file.flush()
        if force and self._appends_since_sync:
            self._fsync()

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        self._flush(force=True)

    def close(self) -> None:
        """Flush (and, unless policy is ``never``, fsync) and release."""
        if self._file is not None:
            self._flush(force=self.fsync != "never")
            self._file.close()
            self._file = None
        # Forget position; reopened lazily (and re-scanned) on next use.
        self._active = None
        self._active_bytes = 0
        self._next_index = None

    # -- compaction ----------------------------------------------------------------

    def compact(self, through_index: int) -> int:
        """Delete whole segments whose records are all <= ``through_index``.

        Called after a snapshot covering ``through_index`` has been
        atomically written; returns the number of segments removed.  The
        active (last) segment is never removed.
        """
        segments = self.segments()
        removed = 0
        for position, segment in enumerate(segments):
            is_last = position == len(segments) - 1
            if is_last:
                break
            next_first = segments[position + 1].first_index
            if next_first - 1 <= through_index:
                if self._file is not None and self._active == segment:
                    continue  # pragma: no cover - active is always last
                os.remove(segment.path)
                removed += 1
        self.stats.segments_compacted += removed
        return removed
