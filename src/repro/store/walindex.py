"""Group-level WAL index: key → (lsn, offset, length) of each WAL record.

A :class:`~repro.store.sketchstore.SketchStore` WAL interleaves records of
many groups; answering "what happened to *this* group since the snapshot"
by scanning the whole log reads every other group's hash payloads too. The
index is a sidecar log — ``walidx-<gen>.log`` beside ``wal-<gen>.log`` —
appending one tiny entry per WAL record, so a reader can seek straight to
one group's records (selective replay, see
:meth:`repro.store.reader.SnapshotReader.group_sketch`).

Entries use the shared checksummed framing of
:func:`repro.storage.serialization.write_record` with the group key as the
record key and ``uvarint lsn | uvarint offset | uvarint length`` as the
payload, behind a ``TAG_WAL_INDEX`` file header.

The index is *advisory*, never authoritative: the writer appends the WAL
records of a commit first and their index entries after, so the index can
lag the WAL by the records of an in-flight commit (or arbitrarily far
after a crash — the writer rebuilds it on recovery, readers scan the
unindexed WAL tail).
A reader must therefore treat the index as a verified prefix: every entry
points at a record whose framing re-validates (CRC, key, LSN) when read
back, and records past the last indexed one are found by a bounded tail
scan from :func:`scan_floor`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Iterable

from repro.storage.serialization import (
    IncompleteRecordError,
    TAG_WAL_INDEX,
    read_record_from,
    read_uvarint,
    write_record,
    write_uvarint,
)
from repro.store.durable import atomic_write

#: The single record kind inside an index file.
RECORD_INDEX = 0x01


@dataclass(frozen=True)
class WalIndexEntry:
    """Location of one WAL record: its LSN, start offset and byte length."""

    lsn: int
    offset: int
    length: int

    @property
    def end(self) -> int:
        """Offset of the first byte after the indexed WAL record."""
        return self.offset + self.length


def _encode_entries(
    buffer: bytearray, entries: Iterable[tuple[bytes, int, int, int]]
) -> None:
    for key, lsn, offset, length in entries:
        payload = bytearray()
        write_uvarint(payload, lsn)
        write_uvarint(payload, offset)
        write_uvarint(payload, length)
        write_record(buffer, RECORD_INDEX, key, bytes(payload))


class WalIndexWriter:
    """Appends ``(key, lsn, offset, length)`` entries to an index file."""

    def __init__(self, path) -> None:
        self._path = pathlib.Path(path)
        exists = self._path.exists()
        self._handle = open(self._path, "ab")
        if not exists or self._handle.tell() == 0:
            from repro.store.sketchstore import _file_header

            self._handle.write(_file_header(TAG_WAL_INDEX))
            self._handle.flush()

    @property
    def path(self) -> pathlib.Path:
        return self._path

    def append_many(self, entries: Iterable[tuple[bytes, int, int, int]]) -> None:
        """Append ``(key, lsn, offset, length)`` entries with one write."""
        buffer = bytearray()
        _encode_entries(buffer, entries)
        self._handle.write(buffer)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WalIndexWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def rebuild_wal_index(
    path, entries: Iterable[tuple[bytes, int, int, int]]
) -> None:
    """Atomically rewrite an index file from ``(key, lsn, offset, length)``.

    Used by writer recovery: after a crash the on-disk index may lag the
    WAL or point past a truncated tail, so it is rebuilt wholesale from
    the replay scan (:func:`repro.store.durable.atomic_write` keeps a
    concurrent reader from ever seeing a half-written index, and syncs
    the rename).
    """
    from repro.store.sketchstore import _file_header

    buffer = bytearray(_file_header(TAG_WAL_INDEX))
    _encode_entries(buffer, entries)
    atomic_write(path, buffer)


def load_wal_index(path) -> dict[bytes, list[WalIndexEntry]]:
    """Load an index file as ``key -> [WalIndexEntry, ...]`` (LSN order).

    Tolerates a torn tail (the writer may have died mid-entry): loading
    stops at the first incomplete record. A missing file yields an empty
    index — selective replay then degrades to a full-log scan.
    """
    from repro.store.sketchstore import _FILE_HEADER_BYTES, _check_file_header

    path = pathlib.Path(path)
    index: dict[bytes, list[WalIndexEntry]] = {}
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return index
    with handle:
        header = handle.read(_FILE_HEADER_BYTES)
        if len(header) < _FILE_HEADER_BYTES:
            return index  # torn before the header finished: empty index
        _check_file_header(header, TAG_WAL_INDEX, path)
        while True:
            try:
                record = read_record_from(handle)
            except IncompleteRecordError:
                break
            if record is None:
                break
            kind, key, payload = record
            if kind != RECORD_INDEX:
                from repro.storage.serialization import SerializationError

                raise SerializationError(
                    f"{path}: unexpected index record kind {kind:#x}"
                )
            lsn, at = read_uvarint(payload, 0)
            offset, at = read_uvarint(payload, at)
            length, at = read_uvarint(payload, at)
            index.setdefault(key, []).append(WalIndexEntry(lsn, offset, length))
    return index


def scan_floor(index: dict[bytes, list[WalIndexEntry]]) -> int:
    """First WAL offset *not* covered by any index entry.

    Index entries are appended in WAL order, so the maximum entry end
    across all keys bounds the indexed prefix; a selective replay scans
    the WAL from here to pick up records the index has not caught up to.
    Returns 0 for an empty index (scan everything after the file header).
    """
    floor = 0
    for entries in index.values():
        if entries:
            floor = max(floor, entries[-1].end)
    return floor
