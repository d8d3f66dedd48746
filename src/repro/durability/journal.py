"""Append-only, CRC-framed JSONL write-ahead journal.

Frame format — one record per line::

    crc32_hex8 SP canonical_json LF

The CRC covers the JSON payload bytes only, so a frame is self-validating:
a torn write (partial line at the tail after a crash) or a flipped bit is
detected on open and the journal is truncated back to its last valid frame.
Records after the first invalid frame are discarded — they are causally
newer than the corruption, and replaying them over a hole could reorder
lifecycle transitions.

Writes go through an ``O_APPEND`` raw file descriptor with ``os.write`` so
that an in-process simulated crash leaves exactly the bytes that were
written — there is no userspace buffer to lose.  ``fsync`` is batched:
every ``fsync_every`` appends, plus on demand for records that must be
durable before the caller proceeds (submits, read values, terminal
results).

Segments rotate at ``segment_max_bytes``; sequence numbers are global and
monotone across segments, so replay order never depends on file mtimes.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import JournalCorruptionError

_SEGMENT_RE = re.compile(r"^journal-(\d{6})\.wal$")


def _frame(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, body)


def _intact(line: bytes) -> bool:
    """Framing and CRC of one journal line: what a torn write or a flipped
    bit breaks.  The body of every frame written here is a JSON object."""
    if len(line) < 10 or line[8:9] != b" " or line[9:10] != b"{":
        return False
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return False
    return zlib.crc32(line[9:]) & 0xFFFFFFFF == crc


def _parse_frame(line: bytes) -> dict[str, Any] | None:
    """Decode one journal line; ``None`` means the frame is invalid."""
    if not _intact(line):
        return None
    try:
        record = json.loads(line[9:])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _scan_segment(path: str) -> Iterator[tuple[bytes, int]]:
    """Every intact frame of a segment, in order, undecoded.

    Yields ``(line, end)`` where ``end`` is the byte offset just past the
    frame; stops at the first torn or corrupt one, so the last ``end`` is
    where the valid prefix ends.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            return  # torn tail: no closing newline
        line = data[pos:newline]
        if not _intact(line):
            return
        pos = newline + 1
        yield line, pos


@dataclass
class JournalStats:
    """Counters exposed through the observability registry."""

    appends_total: int = 0
    fsyncs_total: int = 0
    bytes_appended_total: int = 0
    rotations_total: int = 0
    recovered_records: int = 0
    dropped_bytes: int = 0
    dropped_segments: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class Journal:
    """One append-only journal under ``<directory>/``.

    Opening scans existing segments oldest-first, truncates the first
    corrupt/torn frame (and discards any later segments), and resumes
    appending after the highest recovered sequence number.  The scan checks
    framing and CRCs only; records are decoded one at a time by
    :meth:`records` and never kept, so reopening a long journal costs the
    memory of what the caller builds from it, not a second copy of it.
    """

    directory: str
    fsync_every: int = 8
    segment_max_bytes: int = 1 << 20
    stats: JournalStats = field(default_factory=JournalStats, repr=False)

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._seq = 0
        self._pending_fsync = 0
        self._segment_index = 0
        self._segment_bytes = 0
        self._recover()

    # ---------------------------------------------------------------- open

    def _segments(self) -> list[tuple[int, str]]:
        found = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.directory, name)))
        return sorted(found)

    def _recover(self) -> None:
        segments = self._segments()
        corrupted_at: int | None = None
        last_frame: bytes | None = None
        for position, (index, path) in enumerate(segments):
            valid_end = 0
            for last_frame, valid_end in _scan_segment(path):
                self.stats.recovered_records += 1
            size = os.path.getsize(path)
            self._segment_index = index
            if valid_end < size:
                # Torn or corrupt frame: cut the segment back to its last
                # valid frame and drop every later segment — records past
                # the hole cannot be replayed in order.
                self.stats.dropped_bytes += size - valid_end
                with open(path, "ab") as handle:
                    handle.truncate(valid_end)
                corrupted_at = position
                break
        if corrupted_at is not None:
            for _, path in segments[corrupted_at + 1 :]:
                self.stats.dropped_bytes += os.path.getsize(path)
                self.stats.dropped_segments += 1
                os.unlink(path)
        if last_frame is not None:
            # Sequence numbers are monotone: the last frame holds the highest.
            seq = (_parse_frame(last_frame) or {}).get("seq")
            if isinstance(seq, int):
                self._seq = seq
        if segments:
            self._segment_bytes = os.path.getsize(self._segment_path(self._segment_index))
        else:
            self._segment_index = 1

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, f"journal-{index:06d}.wal")

    # -------------------------------------------------------------- append

    def append(self, kind: str, payload: dict[str, Any], sync: bool = False) -> int:
        """Append one record; returns its sequence number.

        ``sync=True`` forces an fsync before returning (used for submit,
        step and terminal records — none may be acted on and then lost).
        A payload that does not JSON-encode raises before anything is
        written or a sequence number is taken.
        """
        with self._lock:
            record = {"seq": self._seq + 1, "kind": kind}
            record.update(payload)
            frame = _frame(record)
            self._seq += 1
            if self._segment_bytes + len(frame) > self.segment_max_bytes and self._segment_bytes > 0:
                self._rotate_locked()
            fd = self._ensure_fd_locked()
            os.write(fd, frame)
            self._segment_bytes += len(frame)
            self.stats.appends_total += 1
            self.stats.bytes_appended_total += len(frame)
            self._pending_fsync += 1
            if sync or self._pending_fsync >= self.fsync_every:
                self._fsync_locked()
            return self._seq

    def _ensure_fd_locked(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self._segment_path(self._segment_index),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        return self._fd

    def _rotate_locked(self) -> None:
        self._fsync_locked()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._segment_index += 1
        self._segment_bytes = 0
        self.stats.rotations_total += 1

    def _fsync_locked(self) -> None:
        if self._fd is not None and self._pending_fsync > 0:
            os.fsync(self._fd)
            self.stats.fsyncs_total += 1
        self._pending_fsync = 0

    def close(self) -> None:
        with self._lock:
            self._fsync_locked()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # --------------------------------------------------------------- read

    def records(self) -> Iterator[dict[str, Any]]:
        """The records on disk, in append order, decoded as they are read."""
        for _index, path in self._segments():
            for line, _end in _scan_segment(path):
                try:
                    yield json.loads(line[9:])
                except ValueError as error:
                    raise JournalCorruptionError(
                        f"{path}: a frame passed its CRC but does not decode"
                    ) from error
