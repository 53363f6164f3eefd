"""Durable keyed sketch store: write-ahead log + snapshots.

:class:`SketchStore` persists a :class:`~repro.aggregate.DistinctCountAggregator`
— group key → sketch — across process death. The design leans on the
paper's core property: sketch state is tiny, mergeable and serializable,
so full snapshots are cheap and the log between snapshots only has to
carry *inputs* (hash batches), not state diffs.

Directory layout (``gen`` is the zero-padded compaction generation)::

    store/
      snapshot-<gen>.bin   header 0x42 | uvarint gen | uvarint base_lsn
                           | aggregator blob
      wal-<gen>.log        header 0x41 | LSN-stamped checksummed records

Each WAL record uses the LSN framing of
:func:`repro.storage.serialization.write_lsn_record` with two record kinds:

* ``RECORD_HASHES`` (0x01) — payload is ``n * 8`` little-endian uint64
  hash values folded into the key's sketch,
* ``RECORD_SKETCH`` (0x02) — payload is a serialized sketch merged into
  the key's sketch (how retired sliding-window buckets persist and how
  a cluster rebalance ships whole groups between shards),
* ``RECORD_DROP`` (0x03) — empty payload; the key's group is removed
  (how a rebalance retires groups their shard no longer owns), and
* ``RECORD_CUTOVER`` (0x04) — a state no-op fence written by cluster
  rebalancing (see :mod:`repro.cluster`); the payload names the epoch
  and shard counts so replicas and readers replaying the log can tell
  exactly where ownership changed.

Every record carries a **log sequence number**: LSNs start at 1, increase
by exactly 1 per record, and keep counting across compactions (a
snapshot's ``base_lsn`` says how many records it has folded in). The LSN
is what makes the store readable and replicable while it is being
written: a :class:`~repro.store.reader.SnapshotReader` reports the LSN of
the last record it could prove durable (the *durable horizon*), and a
:class:`~repro.store.replicate.FollowerStore` deduplicates re-shipped
records by LSN.

**One write path.** Every record — :meth:`~SketchStore.append_hashes`,
:meth:`~SketchStore.merge_sketch`, :meth:`~SketchStore.drop_group`,
:meth:`~SketchStore.append_cutover` — is validated, then staged with its
LSN. A *commit* writes every staged record with one ``write`` (and, with
``fsync=True``, one ``os.fsync``), then applies them to memory through
:func:`apply_wal_record`, so the writer folds exactly what recovery
replays. A single call is a commit of one record; ``with
store.batch():`` groups every record written inside it into one commit.
:func:`apply_wal_record` changes the in-memory
:class:`~repro.aggregate.DistinctCountAggregator` only through its write
API (``fold``, ``merge_sketch``, ``drop_group``), and every read
(``estimate``, ``top``, ...) is answered by that aggregator through
:class:`~repro.query.source.DelegatingSource`.

Commit rule: a batch is acknowledged after one fsync (a
:class:`~repro.cluster.ShardedStore` batch: one per shard that received
records; the default ``fsync=False`` leaves syncing to the OS like most
databases in ``fsync=off`` mode). A crash in the middle of a batch
leaves a record-granular prefix of it per shard: every complete record
replays, a torn final one is cut away. Reads inside a ``batch()`` scope
see the state from before the scope; a scope left by an exception writes
nothing. A commit that fails (a ``write`` or ``fsync`` error) closes the
WAL, and the store refuses writes until it is reopened, so no LSN is
ever logged twice.

:meth:`SketchStore.open` replays the WAL tail on top of the newest
snapshot; a torn final record (crash mid-write) is truncated away —
**unless** the store is opened with ``read_only=True``, which must never
mutate a live writer's files and instead just stops at the durable
horizon. Any other corruption raises
:class:`~repro.storage.serialization.SerializationError` rather than
loading garbage. :meth:`compact` folds the WAL into a fresh snapshot
and starts an empty log. Snapshots and fresh WALs are both written by
:func:`repro.store.durable.atomic_write` (temp file, fsync, rename,
directory fsync), and a new store directory is created by
:func:`repro.store.durable.make_dirs`, which syncs it into its parent.
Every snapshot, whoever reads it, is decoded by :func:`parse_snapshot`.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

import numpy as np

from repro.aggregate import DistinctCountAggregator
from repro.hashing import to_bytes
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.query.source import DelegatingSource
from repro.storage.serialization import (
    FORMAT_VERSION,
    MAGIC,
    IncompleteRecordError,
    SerializationError,
    TAG_EXALOGLOG,
    TAG_SNAPSHOT,
    TAG_SPARSE_EXALOGLOG,
    TAG_WAL,
    read_lsn_record_from,
    read_uvarint,
    write_lsn_record,
    write_uvarint,
)
from repro.store.durable import atomic_write, make_dirs

#: WAL record kinds.
RECORD_HASHES = 0x01
RECORD_SKETCH = 0x02
RECORD_DROP = 0x03
RECORD_CUTOVER = 0x04

# Observability handles (collection off unless REPRO_METRICS is set).
_WAL_APPEND_BYTES = _metrics.counter(
    "store.wal_append_bytes", "Bytes appended to the write-ahead log."
)
_WAL_APPEND_RECORDS = _metrics.counter(
    "store.wal_append_records",
    "Records appended to the write-ahead log (each commit adds its count).",
)
_FSYNC_SECONDS = _metrics.histogram(
    "store.fsync_seconds", "Per-commit WAL fsync latency (fsync=True only)."
)
_SNAPSHOT_SECONDS = _metrics.histogram(
    "store.snapshot_seconds", "Snapshot write duration (atomic rename incl.)."
)
_COMPACTIONS = _metrics.counter(
    "store.compactions", "WAL-into-snapshot compactions performed."
)
_COMPACTION_SECONDS = _metrics.histogram(
    "store.compaction_seconds", "Full compaction duration."
)
_TORN_TAIL_RECOVERIES = _metrics.counter(
    "store.torn_tail_recoveries",
    "Recoveries that truncated a torn WAL tail left by a crash.",
)
_REPLAY_RECORDS = _metrics.counter(
    "store.wal_replay_records", "WAL records replayed during store opens."
)

_SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.bin$")
_WAL_PATTERN = re.compile(r"^wal-(\d{8})\.log$")

_FILE_HEADER_BYTES = 4


def _file_header(tag: int) -> bytes:
    return MAGIC + bytes((FORMAT_VERSION, tag))


def _check_file_header(data: bytes, tag: int, path) -> int:
    if len(data) < _FILE_HEADER_BYTES:
        raise SerializationError(f"{path}: too short to hold a file header")
    if data[:2] != MAGIC or data[2] != FORMAT_VERSION or data[3] != tag:
        raise SerializationError(f"{path}: bad file header (expected tag {tag:#x})")
    return _FILE_HEADER_BYTES


# -- directory layout helpers (shared with reader / replication) ---------------


def snapshot_path(directory, generation: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"snapshot-{generation:08d}.bin"


def wal_path(directory, generation: int) -> pathlib.Path:
    return pathlib.Path(directory) / f"wal-{generation:08d}.log"


def latest_generation(directory) -> "int | None":
    """Newest snapshot generation in ``directory`` (None when uninitialised)."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return None
    generations = [
        int(match.group(1))
        for entry in entries
        if (match := _SNAPSHOT_PATTERN.match(entry))
    ]
    return max(generations) if generations else None


def read_snapshot_header(path) -> tuple[int, int, int]:
    """Peek a snapshot's ``(generation, base_lsn, payload_offset)``.

    Reads only the leading bytes — the replication shipper uses this to
    decide whether a follower needs the snapshot at all before paying for
    the full aggregator blob.
    """
    with open(path, "rb") as handle:
        head = handle.read(_FILE_HEADER_BYTES + 20)  # two uvarints at most
    offset = _check_file_header(head, TAG_SNAPSHOT, path)
    generation, offset = read_uvarint(head, offset)
    base_lsn, offset = read_uvarint(head, offset)
    return generation, base_lsn, offset


def parse_snapshot(data: bytes, origin) -> tuple[DistinctCountAggregator, int, int]:
    """Decode a whole snapshot into ``(aggregator, generation, base_lsn)``.

    The one parser of the snapshot format: writer recovery, the reader
    and the follower's install all call it and then check the result
    against what they expect. The aggregator blob parses through a
    ``memoryview``, so the file's bytes are never copied a second time.
    ``origin`` (a path, or a description of where the bytes came from)
    names the source in errors.
    """
    offset = _check_file_header(data, TAG_SNAPSHOT, origin)
    generation, offset = read_uvarint(data, offset)
    base_lsn, offset = read_uvarint(data, offset)
    aggregator = DistinctCountAggregator.from_bytes(memoryview(data)[offset:])
    return aggregator, generation, base_lsn


def sketch_to_blob(sketch) -> bytes:
    """Serialize any dense/sparse ExaLogLog for a ``RECORD_SKETCH`` payload."""
    return sketch.to_bytes()


def sketch_from_blob(blob: bytes):
    """Deserialize a ``RECORD_SKETCH`` payload (dense or sparse, by tag)."""
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    if len(blob) < _FILE_HEADER_BYTES:
        raise SerializationError("sketch blob too short for a header")
    tag = blob[3]
    if tag == TAG_EXALOGLOG:
        return ExaLogLog.from_bytes(blob)
    if tag == TAG_SPARSE_EXALOGLOG:
        return SparseExaLogLog.from_bytes(blob)
    raise SerializationError(f"sketch blob tag {tag:#x} is not mergeable into a store")


@dataclass
class WalReplay:
    """Result of replaying one WAL file."""

    records: int = 0
    """Complete records applied."""

    durable_bytes: int = _FILE_HEADER_BYTES
    """Offset of the first byte after the last complete record."""

    last_lsn: int = 0
    """LSN of the last applied record (the caller's ``base_lsn`` if none)."""


def replay_wal(
    path, aggregator: DistinctCountAggregator, base_lsn: int = 0
) -> WalReplay:
    """Replay a WAL file into ``aggregator``.

    ``base_lsn`` is the LSN the underlying snapshot has already folded in;
    the file's records must continue it gaplessly (``base_lsn + 1,
    base_lsn + 2, ...``) — any other sequence means the snapshot and WAL
    belong to different histories and raises :class:`SerializationError`.
    A torn tail after the last complete record is ignored (the *writer*
    truncates it before appending more; a read-only open leaves it
    alone). Corruption inside the durable prefix raises
    :class:`SerializationError`.
    """
    replay = WalReplay(last_lsn=base_lsn)
    with open(path, "rb") as handle:
        # Streamed record by record, so replay memory stays O(one record)
        # even for a WAL that was never compacted.
        _check_file_header(handle.read(_FILE_HEADER_BYTES), TAG_WAL, path)
        replay.durable_bytes = handle.tell()
        while True:
            start = handle.tell()
            try:
                record = read_lsn_record_from(handle)
            except IncompleteRecordError:
                break  # torn tail write: durable prefix ends at the last full record
            if record is None:
                break
            lsn, kind, key, payload = record
            if lsn != replay.last_lsn + 1:
                raise SerializationError(
                    f"{path}: record at offset {start} has LSN {lsn}, "
                    f"expected {replay.last_lsn + 1}"
                )
            apply_wal_record(aggregator, kind, key, payload)
            replay.records += 1
            replay.last_lsn = lsn
            replay.durable_bytes = handle.tell()
    return replay


def apply_wal_record(
    aggregator: DistinctCountAggregator, kind: int, key: bytes, payload: bytes
) -> None:
    """Apply one decoded WAL record to an aggregator.

    The single state-transition function shared by the writer's commit,
    recovery, the concurrent reader's tail, and follower replication —
    every path folds the same bytes through the aggregator's own write
    API (:meth:`~DistinctCountAggregator.fold`,
    :meth:`~DistinctCountAggregator.merge_sketch`,
    :meth:`~DistinctCountAggregator.drop_group`), which is what the
    bit-identity guarantees rest on.
    """
    if kind == RECORD_HASHES:
        if len(payload) % 8:
            raise SerializationError(
                f"hash record payload of {len(payload)} bytes is not a multiple of 8"
            )
        aggregator.fold(key, np.frombuffer(payload, dtype="<u8"))
    elif kind == RECORD_SKETCH:
        aggregator.merge_sketch(key, sketch_from_blob(payload))
    elif kind == RECORD_DROP:
        if payload:
            raise SerializationError(
                f"drop record carries a {len(payload)}-byte payload"
            )
        aggregator.drop_group(key)
    elif kind == RECORD_CUTOVER:
        pass  # cluster rebalance fence: no state transition
    else:
        raise SerializationError(f"unknown WAL record kind {kind:#x}")


class SketchStore(DelegatingSource):
    """A crash-recoverable, WAL-backed store of per-key distinct-count sketches.

    >>> store = SketchStore.open(tmp_path / "counts", p=8)
    >>> store.append("DE", ["alice", "bob"])
    >>> store.close()
    >>> reopened = SketchStore.open(tmp_path / "counts")
    >>> round(reopened.estimate("DE"))
    2

    Parameters mirror the aggregator; on an existing store directory the
    persisted configuration wins and explicitly passed parameters are
    validated against it.

    ``auto_compact_bytes`` bounds the WAL: when a commit pushes the log
    past the threshold, the store compacts synchronously (snapshot write
    + fresh log), so recovery time stays proportional to the threshold,
    not to the total ingest history.

    ``read_only=True`` opens a *foreign* store without mutating anything:
    no directory creation, no torn-tail truncation, no stale-generation
    sweep — safe against a live writer's files. The loaded state is the
    durable prefix at open time; for an incrementally refreshing view use
    :class:`repro.store.reader.SnapshotReader`.

    Reads (``estimate``, ``estimates``, ``top``, ``group_sketch``, ``len``,
    ``in``, ``groups``, ``config``) answer from the live
    :attr:`aggregator` through :class:`~repro.query.source.DelegatingSource`.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("use SketchStore.open(path, ...) to create or open a store")

    @classmethod
    def _new(cls) -> "SketchStore":
        return object.__new__(cls)

    @classmethod
    def open(
        cls,
        path,
        t: int | None = None,
        d: int | None = None,
        p: int | None = None,
        sparse: bool | None = None,
        seed: int | None = None,
        fsync: bool = False,
        auto_compact_bytes: int | None = None,
        read_only: bool = False,
    ) -> "SketchStore":
        """Open a store directory, creating it (plus generation 0) if absent.

        Opening an existing store recovers it: the newest snapshot loads,
        the matching WAL replays up to its last complete record, and a
        torn tail (if the previous process died mid-write) is truncated.
        With ``read_only=True`` nothing on disk is touched — the torn
        tail stays (it may be a live writer's in-flight append), and
        mutating methods raise.
        """
        store = cls._new()
        store._directory = pathlib.Path(path)
        store._fsync = fsync
        store._auto_compact_bytes = auto_compact_bytes
        store._read_only = read_only
        store._wal_handle = None
        store._pending = []  # staged (kind, key, payload)
        store._pending_bytes = bytearray()
        store._depth = 0  # open batch() scopes
        store._failed = False
        if not read_only:
            make_dirs(store._directory)
        elif not store._directory.is_dir():
            raise FileNotFoundError(
                f"read-only open of missing store directory {store._directory}"
            )

        requested = (t, d, p, sparse, seed)
        generation = latest_generation(store._directory)
        if generation is None:
            if read_only:
                raise SerializationError(
                    f"{store._directory}: no snapshot found (uninitialised store)"
                )
            defaults = (2, 20, 8, True, 0)
            config = tuple(
                value if value is not None else default
                for value, default in zip(requested, defaults)
            )
            store._generation = 0
            store._base_lsn = 0
            store._durable_lsn = 0
            store._aggregator = DistinctCountAggregator(*config)
            store._write_snapshot(0)
            store._wal_records = 0
            store._open_wal(truncate_to=None)
        else:
            store._generation = generation
            store._aggregator, store._base_lsn = store._load_snapshot(generation)
            store._durable_lsn = store._base_lsn
            persisted = store._aggregator.config
            mismatched = [
                (value, on_disk)
                for value, on_disk in zip(requested, persisted)
                if value is not None and value != on_disk
            ]
            if mismatched:
                raise ValueError(
                    f"store at {store._directory} has configuration "
                    f"(t, d, p, sparse, seed)={persisted}, requested {requested}"
                )
            path_ = wal_path(store._directory, generation)
            if path_.exists():
                replay = replay_wal(path_, store._aggregator, store._base_lsn)
                store._wal_records = replay.records
                store._durable_lsn = replay.last_lsn
                _REPLAY_RECORDS.inc(replay.records)
                if not read_only:
                    store._open_wal(truncate_to=replay.durable_bytes)
            else:
                store._wal_records = 0
                if not read_only:
                    store._open_wal(truncate_to=None)
            if not read_only:
                store._sweep_stale(generation)
        return store

    # -- paths ----------------------------------------------------------------

    def _snapshot_path(self, generation: int) -> pathlib.Path:
        return snapshot_path(self._directory, generation)

    def _wal_path(self, generation: int) -> pathlib.Path:
        return wal_path(self._directory, generation)

    def _sweep_stale(self, generation: int) -> None:
        """Delete files a crashed compaction left behind (older generations).

        Also deletes every ``walidx-<gen>.log``, whatever its generation:
        the retired group-level WAL index that stores written by earlier
        versions kept beside each WAL.
        """
        for entry in os.listdir(self._directory):
            match = _SNAPSHOT_PATTERN.match(entry) or _WAL_PATTERN.match(entry)
            stale = match is not None and int(match.group(1)) < generation
            if stale or re.match(r"^walidx-\d{8}\.log$", entry):
                (self._directory / entry).unlink()

    # -- snapshot & WAL files -------------------------------------------------

    def _write_snapshot(self, generation: int) -> None:
        started = time.perf_counter()
        buffer = bytearray(_file_header(TAG_SNAPSHOT))
        write_uvarint(buffer, generation)
        write_uvarint(buffer, self._durable_lsn)
        buffer.extend(self._aggregator.to_bytes())
        atomic_write(self._snapshot_path(generation), buffer)
        self._base_lsn = self._durable_lsn
        if _metrics.enabled():
            _SNAPSHOT_SECONDS.observe(time.perf_counter() - started)

    def _load_snapshot(self, generation: int) -> tuple[DistinctCountAggregator, int]:
        path = self._snapshot_path(generation)
        aggregator, stored_generation, base_lsn = parse_snapshot(path.read_bytes(), path)
        if stored_generation != generation:
            raise SerializationError(
                f"{path}: names generation {generation} but holds {stored_generation}"
            )
        return aggregator, base_lsn

    def _open_wal(self, truncate_to: int | None) -> None:
        path = self._wal_path(self._generation)
        if not path.exists():
            atomic_write(path, _file_header(TAG_WAL))
        elif truncate_to is not None and truncate_to < os.path.getsize(path):
            # A crash mid-commit left a torn tail; recovery cuts it away and
            # syncs the cut, so a power cut cannot bring the torn bytes back
            # behind records appended later.
            _TORN_TAIL_RECOVERIES.inc()
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)
                os.fsync(handle.fileno())
        self._wal_handle = open(path, "ab")

    # -- the write path: stage, then commit ----------------------------------

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError("store is read-only")
        if self._failed:
            raise ValueError(
                f"store at {self._directory} stopped after a failed WAL commit; "
                "reopen it with SketchStore.open() to recover its durable prefix"
            )
        if self._wal_handle is None:
            raise ValueError("store is closed")

    @contextlib.contextmanager
    def batch(self) -> Iterator["SketchStore"]:
        """Group every record written inside the scope into one commit.

        Records are staged as they are written and committed when the
        outermost scope exits: one WAL write, one fsync (``fsync=True``),
        then the fold into memory. Scopes nest. A scope left by an
        exception discards the records staged inside it and writes
        nothing. Reads inside a scope see the state from before it, and
        :meth:`compact` inside one raises.
        """
        self._check_writable()
        records, staged_bytes = len(self._pending), len(self._pending_bytes)
        self._depth += 1
        try:
            yield self
        except BaseException:
            del self._pending[records:]
            del self._pending_bytes[staged_bytes:]
            raise
        finally:
            self._depth -= 1
        if not self._depth:
            self._commit()

    def _stage(self, kind: int, key: bytes, payload: bytes) -> None:
        """Frame one validated record at the next LSN; a scope of one."""
        with self.batch():
            lsn = self._durable_lsn + len(self._pending) + 1
            write_lsn_record(self._pending_bytes, lsn, kind, key, payload)
            self._pending.append((kind, key, payload))

    def _commit(self) -> None:
        """Write, sync, then apply every staged record, in order."""
        records, buffer = self._pending, self._pending_bytes
        if not records:
            return
        self._pending, self._pending_bytes = [], bytearray()
        handle = self._wal_handle
        if handle is None:
            raise ValueError("store is closed")
        try:
            with _trace.span("store.commit", records=len(records), bytes=len(buffer)):
                handle.write(buffer)
                handle.flush()
                if self._fsync:
                    if _metrics.enabled():
                        started = time.perf_counter()
                        os.fsync(handle.fileno())
                        _FSYNC_SECONDS.observe(time.perf_counter() - started)
                    else:
                        os.fsync(handle.fileno())
                self._durable_lsn += len(records)
                self._wal_records += len(records)
                for kind, key, payload in records:
                    apply_wal_record(self._aggregator, kind, key, payload)
        except BaseException:
            self._fail()
            raise
        if _metrics.enabled():
            _WAL_APPEND_BYTES.inc(len(buffer))
            _WAL_APPEND_RECORDS.inc(len(records))
        self._maybe_auto_compact()

    def _fail(self) -> None:
        """Stop writing after a failed commit.

        The WAL may hold some, all or none of the commit's bytes, so the
        next free LSN is only known after a reopen replays the file:
        close the WAL and refuse every later write.
        """
        self._failed = True
        handle, self._wal_handle = self._wal_handle, None
        if handle is not None:
            with contextlib.suppress(OSError):
                handle.close()

    def _maybe_auto_compact(self) -> None:
        """Compact when the WAL outgrew its bound.

        Only called *after* a commit has been both logged and applied to
        the in-memory aggregator — compacting between the two would
        snapshot a state missing its records while deleting the WAL that
        held them.
        """
        if (
            self._auto_compact_bytes is not None
            and self._wal_handle is not None
            and self._wal_handle.tell() >= self._auto_compact_bytes
        ):
            self.compact()

    # -- ingest ---------------------------------------------------------------

    def append(self, group: Hashable, items: Any) -> "SketchStore":
        """Durably record a batch of items under ``group``; returns ``self``."""
        from repro.hashing.batch import hash_items

        return self.append_hashes(group, hash_items(items, self.config[4]))

    def append_hashes(self, group: Hashable, hashes) -> "SketchStore":
        """Durably record pre-hashed values under ``group``; returns ``self``.

        The record commits alone, or with the rest of an enclosing
        :meth:`batch`: its WAL bytes go out first, and only then does it
        fold into the in-memory sketch, so anything a reader can observe
        is also recoverable.
        """
        from repro.backends import as_hash_array

        hashes = as_hash_array(hashes)
        if len(hashes) == 0:
            return self
        self._stage(RECORD_HASHES, to_bytes(group), hashes.astype("<u8", copy=False).tobytes())
        return self

    def merge_sketch(self, group: Hashable, sketch) -> "SketchStore":
        """Durably merge a whole sketch into ``group`` (bucket retirement).

        The sketch's type and parameters are checked before anything is
        staged: a logged record that cannot merge would fail every replay.
        """
        self._aggregator.check_mergeable(sketch)
        self._stage(RECORD_SKETCH, to_bytes(group), sketch_to_blob(sketch))
        return self

    def drop_group(self, group: Hashable) -> "SketchStore":
        """Durably remove ``group`` from the store; returns ``self``.

        The WAL records the drop, so recovery, readers and followers all
        converge on the removal. Dropping an absent group is a no-op
        record (idempotent — a rebalance retrying after a crash may drop
        twice).
        """
        self._stage(RECORD_DROP, to_bytes(group), b"")
        return self

    def append_cutover(self, payload: bytes) -> "SketchStore":
        """Durably write a cluster-rebalance fence record; returns ``self``.

        A pure log marker (state no-op, keyed ``b""``): anything replaying
        this WAL — recovery, a reader tail, a follower replica — carries
        the fence at exactly the LSN the rebalance wrote it, which is what
        lets a replica chain prove on which side of a cutover it stopped.
        """
        self._stage(RECORD_CUTOVER, b"", bytes(payload))
        return self

    # -- state ----------------------------------------------------------------

    @property
    def aggregator(self) -> DistinctCountAggregator:
        """The live in-memory state (snapshot + replayed/applied WAL)."""
        return self._aggregator

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    @property
    def generation(self) -> int:
        """Compaction generation (increments on every :meth:`compact`)."""
        return self._generation

    @property
    def read_only(self) -> bool:
        return self._read_only

    @property
    def base_lsn(self) -> int:
        """LSN already folded into the current snapshot."""
        return self._base_lsn

    @property
    def durable_lsn(self) -> int:
        """LSN of the last record known durable (the durable horizon)."""
        return self._durable_lsn

    @property
    def wal_records(self) -> int:
        """Records in the current WAL (replayed + appended this session)."""
        return self._wal_records

    @property
    def wal_bytes(self) -> int:
        """Current WAL file size in bytes."""
        return os.path.getsize(self._wal_path(self._generation))

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns the new generation.

        Write order makes every intermediate crash state recoverable: the
        new snapshot lands atomically (temp file + rename), the new empty
        WAL is created, and only then are the previous generation's files
        deleted — :meth:`open` always finds the newest intact snapshot
        and ignores older leftovers.
        """
        if self._depth:
            raise ValueError("compact() inside an open batch() scope")
        self._check_writable()
        started = time.perf_counter()
        with _trace.span("store.compact", generation=self._generation + 1):
            self._wal_handle.close()
            self._generation += 1
            self._write_snapshot(self._generation)
            self._wal_records = 0
            self._wal_handle = None
            self._open_wal(truncate_to=None)
            self._sweep_stale(self._generation)
        if _metrics.enabled():
            _COMPACTIONS.inc()
            _COMPACTION_SECONDS.observe(time.perf_counter() - started)
        return self._generation

    def close(self) -> None:
        """Flush and close the WAL handle (no compaction)."""
        if self._wal_handle is not None:
            self._wal_handle.flush()
            os.fsync(self._wal_handle.fileno())
            self._wal_handle.close()
            self._wal_handle = None

    def __enter__(self) -> "SketchStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SketchStore(directory={str(self._directory)!r}, "
            f"generation={self._generation}, groups={len(self._aggregator)}, "
            f"wal_records={self._wal_records}, durable_lsn={self._durable_lsn})"
        )
