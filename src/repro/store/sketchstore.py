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
:func:`repro.storage.serialization.write_lsn_record` with five record
kinds:

* ``RECORD_SEGMENTS`` (0x05) — empty frame key; the payload holds a run
  of ``(key, hashes)`` segments (:func:`~repro.storage.serialization.encode_segments`:
  ``uvarint segment_count``, then ``(uvarint key_len, uvarint
  hash_count)`` per segment, the keys concatenated, the hashes as
  little-endian uint64 concatenated in segment order), each folded into
  its key's sketch. The only kind the store writes for hashes;
* ``RECORD_HASHES`` (0x01) — payload is ``n * 8`` little-endian uint64
  hash values folded into the key's sketch. Written by older versions,
  one per group; still read everywhere, alone or mixed with 0x05;
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

**One write path.** Every write — :meth:`~SketchStore.append_hashes`,
:meth:`~SketchStore.merge_sketch`, :meth:`~SketchStore.drop_group`,
:meth:`~SketchStore.append_cutover` — is validated, then staged as a
``(kind, key, payload-or-hashes)`` entry; nothing is framed yet. A
*commit* turns each maximal run of consecutive staged hash entries into
one ``RECORD_SEGMENTS`` record and every other entry into its own
record, in staging order, frames them at consecutive LSNs, writes them
with one ``write`` (and, with ``fsync=True``, one ``os.fsync``), then
applies them to memory as one run through :func:`apply_wal_record`, so
the writer folds exactly what recovery replays. A single call is a
commit of one entry; ``with store.batch():`` groups every entry written
inside it into one commit, so a batch of hash writes is one record.
The insert is commutative and idempotent and the merge exact (Alg. 2
and 5), so how segments are grouped into records changes no register.
That append is the system's only one: a
:class:`~repro.store.replicate.FollowerStore` is a store whose records
come from its leader, logged through the same append. Store creation,
:meth:`~SketchStore.compact` and a follower's reseed share one
generation start: snapshot, fresh WAL, then other generations deleted.
:func:`apply_wal_record` changes the in-memory
:class:`~repro.aggregate.DistinctCountAggregator` only through its write
API (``fold_segments``, ``merge_sketch``, ``drop_group``): the segments
of consecutive hash records fold in one ``fold_segments`` call, one fold
per run of records rather than one per segment. Every read
(``estimate``, ``top``, ...) is answered by that aggregator through
:class:`~repro.query.source.DelegatingSource`.

Commit rule: a batch is acknowledged after one fsync (a
:class:`~repro.cluster.ShardedStore` batch: one per shard that received
records; the default ``fsync=False`` leaves syncing to the OS like most
databases in ``fsync=off`` mode). A commit's hash writes are one record,
so a crash leaves a store all or none of them; a commit that mixes in
sketch, drop or cutover writes keeps a record-granular prefix, and a
torn final record is cut away. Reads inside a ``batch()`` scope see the
state from before the scope; a scope left by an exception drops only
the entries staged inside it. A commit that fails (a ``write`` or
``fsync`` error) closes the WAL, and the store refuses writes until it
is reopened, so no LSN is ever logged twice.

:meth:`SketchStore.open` replays the WAL tail on top of the newest
snapshot, in runs of records of up to :data:`RUN_BYTES`
(:func:`replay_records`, shared with the reader's tail); a torn final
record (crash mid-write) is truncated away —
**unless** the store is opened with ``read_only=True``, which must never
mutate a live writer's files: it loads through
:meth:`SnapshotReader.open <repro.store.reader.SnapshotReader.open>`
and stops at the durable horizon. A record that fails its checksum in a
zero-filled end of the file is a torn tail too (see
:func:`~repro.storage.serialization.read_lsn_record_from`). Any other
corruption raises
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
from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from repro.aggregate import DistinctCountAggregator
from repro.backends import as_hash_array
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
    decode_segments,
    encode_segments,
    read_lsn_record_from,
    read_uvarint,
    segments_layout,
    write_lsn_record,
    write_uvarint,
)
from repro.store.durable import atomic_write, make_dirs

#: WAL record kinds. ``RECORD_HASHES`` is read, never written.
RECORD_HASHES = 0x01
RECORD_SKETCH = 0x02
RECORD_DROP = 0x03
RECORD_CUTOVER = 0x04
RECORD_SEGMENTS = 0x05

#: The kinds that carry hashes, which replay gathers into one run.
_HASH_KINDS = (RECORD_SEGMENTS, RECORD_HASHES)

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


#: Bytes of keys and payloads one run of records may gather before it
#: is applied, on every path that reads records back: WAL replay, the
#: reader's tail and the spill partition merge. Memory stays O(one run)
#: while each run still tokenises in one call.
RUN_BYTES = 16 << 10


class RecordRun:
    """Records gathered to be applied in one call, up to :data:`RUN_BYTES`.

    ``apply`` receives each run as a list; :meth:`add` applies the run
    once it is full, :meth:`flush` whatever it holds.
    """

    __slots__ = ("_apply", "records", "size")

    def __init__(self, apply) -> None:
        self._apply = apply
        self.records: list = []
        self.size = 0

    def add(self, record, size: int) -> None:
        """Gather ``record`` of ``size`` bytes; apply the run once it is full."""
        self.records.append(record)
        self.size += size
        if self.size >= RUN_BYTES:
            self.flush()

    def flush(self) -> None:
        """Apply the gathered records, if any, and start an empty run."""
        if self.records:
            records, self.records, self.size = self.records, [], 0
            self._apply(records)


def replay_wal(
    path, aggregator: DistinctCountAggregator, base_lsn: int = 0
) -> WalReplay:
    """Replay a WAL file into ``aggregator``.

    ``base_lsn`` is the LSN the underlying snapshot has already folded in;
    the file's records must continue it gaplessly (``base_lsn + 1,
    base_lsn + 2, ...``) — any other sequence means the snapshot and WAL
    belong to different histories and raises :class:`SerializationError`.
    A torn tail after the last complete record is ignored (the writer
    truncates it before appending more). Corruption inside the durable
    prefix raises :class:`SerializationError` naming the file and the
    record's offset.
    Records fold in runs through :func:`replay_records`.
    """
    replay = WalReplay(last_lsn=base_lsn)
    with open(path, "rb") as handle:
        # Streamed run by run, so replay memory stays O(one run) even for
        # a WAL that was never compacted.
        _check_file_header(handle.read(_FILE_HEADER_BYTES), TAG_WAL, path)
        replay_records(handle, aggregator, replay)
    return replay


def replay_records(handle, aggregator: DistinctCountAggregator, replay: WalReplay) -> None:
    """Apply the complete WAL records from ``handle``'s position, run by run.

    ``replay`` holds the LSN the records must continue; its ``records``
    and ``last_lsn`` advance by each run once :func:`apply_wal_record`
    has applied it, so they name the state ``aggregator`` holds, also
    when this raises. A run (:class:`RecordRun`) gathers consecutive
    hash records of either kind (``RECORD_SEGMENTS`` or the older
    ``RECORD_HASHES``), whose segments fold in one ``fold_segments``
    call; any other record is applied alone, after the run before it,
    so a failure to apply it names it. Every record is
    checked as it is read (CRC, LSN, :func:`check_wal_record`), and a
    failure applies the run before it, then raises
    :class:`SerializationError` naming the file and the record's offset.
    An incomplete record (a torn tail, or a live writer's in-flight
    append) ends the replay with the handle back at its start. On
    return, ``durable_bytes`` is the end of the last complete record.
    """

    def apply(records: list) -> None:
        apply_wal_record(aggregator, records)
        replay.records += len(records)
        replay.last_lsn += len(records)

    run = RecordRun(apply)
    while True:
        start = handle.tell()
        try:
            record = read_lsn_record_from(handle)
            if record is None:
                break
            lsn, kind, key, payload = record
            expected = replay.last_lsn + len(run.records) + 1
            if lsn != expected:
                raise SerializationError(f"LSN {lsn}, expected {expected}")
            check_wal_record(kind, payload)
            if kind not in _HASH_KINDS:
                run.flush()
            run.add((kind, key, payload), len(key) + len(payload))
            if kind not in _HASH_KINDS:
                run.flush()
        except IncompleteRecordError:
            handle.seek(start)  # torn tail write: the durable prefix ends here
            break
        except SerializationError as error:
            run.flush()
            raise SerializationError(
                f"{handle.name}: record at offset {start}: {error}"
            ) from error
    run.flush()
    replay.durable_bytes = handle.tell()


def check_wal_record(kind: int, payload: bytes) -> None:
    """Raise :class:`SerializationError` for a record no replay can apply.

    The checks a record's own bytes can fail: a segments payload that
    :func:`~repro.storage.serialization.segments_layout` refuses (no
    segment, a segment with no hash, a key past the keys block, counts
    that do not add up to the payload length), a hash payload that is
    not a multiple of 8 bytes, a drop record with a payload, an unknown
    kind. Record loops run it as each record is read, so the error names
    that record.
    """
    if kind == RECORD_SEGMENTS:
        segments_layout(payload)
    elif kind == RECORD_HASHES:
        if len(payload) % 8:
            raise SerializationError(
                f"hash record payload of {len(payload)} bytes is not a multiple of 8"
            )
    elif kind == RECORD_DROP:
        if payload:
            raise SerializationError(
                f"drop record carries a {len(payload)}-byte payload"
            )
    elif kind not in (RECORD_SKETCH, RECORD_CUTOVER):
        raise SerializationError(f"unknown WAL record kind {kind:#x}")


def apply_wal_record(
    aggregator: DistinctCountAggregator, records: "Iterable[tuple[int, bytes, bytes]]"
) -> None:
    """Apply a run of decoded ``(kind, key, payload)`` WAL records, in order.

    The single state-transition function shared by the writer's commit,
    recovery, the concurrent reader's tail, and follower replication —
    every path folds the same bytes through the aggregator's own write
    API (:meth:`~DistinctCountAggregator.fold_segments`,
    :meth:`~DistinctCountAggregator.merge_sketch`,
    :meth:`~DistinctCountAggregator.drop_group`), which is what the
    bit-identity guarantees rest on. A ``RECORD_SEGMENTS`` record
    extends the run's segments with the segments it decodes to, a
    ``RECORD_HASHES`` record with its one segment, and each run of
    consecutive hash records folds through one ``fold_segments`` call;
    a sketch, drop or cutover record flushes that run first, so records
    whose order matters keep their place. The records are well-formed:
    a commit's come from the store's own stagers, and every record read
    back has passed :func:`check_wal_record` as it was read.
    """
    segments: list = []
    for kind, key, payload in records:
        if kind == RECORD_SEGMENTS:
            segments += decode_segments(payload)
            continue
        if kind == RECORD_HASHES:
            segments.append((key, np.frombuffer(payload, dtype="<u8")))
            continue
        if segments:
            aggregator.fold_segments(segments)
            segments = []
        if kind == RECORD_SKETCH:
            aggregator.merge_sketch(key, sketch_from_blob(payload))
        elif kind == RECORD_DROP:
            aggregator.drop_group(key)
        # RECORD_CUTOVER: a cluster rebalance fence, no state transition
    if segments:
        aggregator.fold_segments(segments)


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
    sweep — safe against a live writer's files. The state loads through
    :class:`repro.store.reader.SnapshotReader` and is the durable prefix
    at open time; for an incrementally refreshing view use the reader
    itself.

    Reads (``estimate``, ``estimates``, ``top``, ``group_sketch``, ``len``,
    ``in``, ``groups``, ``config``) answer from the live
    :attr:`aggregator` through :class:`~repro.query.source.DelegatingSource`.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(f"use {type(self).__name__}.open(path, ...) to open one")

    @classmethod
    def _new(cls, path, fsync, auto_compact_bytes=None, read_only=False) -> "SketchStore":
        """An instance over ``path`` holding no state yet: no aggregator, no WAL."""
        store = object.__new__(cls)
        store._directory = pathlib.Path(path)
        store._fsync = fsync
        store._auto_compact_bytes = auto_compact_bytes
        store._read_only = read_only
        store._wal_handle = None
        store._pending = []  # staged (kind, key, payload-or-hashes)
        store._depth = 0  # open batch() scopes
        store._failed = False
        store._aggregator = None
        store._generation = None
        store._base_lsn = store._durable_lsn = store._wal_records = 0
        return store

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
        With ``read_only=True`` the state loads through
        :meth:`SnapshotReader.open <repro.store.reader.SnapshotReader.open>`,
        the one read-only loader, which follows a writer that compacts
        while it opens: nothing on disk is touched, the torn tail stays
        (it may be a live writer's in-flight append), and mutating
        methods raise.
        """
        store = cls._new(path, fsync, auto_compact_bytes, read_only)
        requested = (t, d, p, sparse, seed)
        if read_only:
            from repro.store.reader import SnapshotReader

            with SnapshotReader.open(store._directory) as reader:
                store._aggregator = reader.aggregator
                store._generation = reader.generation
                store._base_lsn = reader.base_lsn
                store._durable_lsn = reader.durable_lsn
            store._wal_records = store._durable_lsn - store._base_lsn
            store._check_config(requested)
            return store

        make_dirs(store._directory)
        generation = latest_generation(store._directory)
        if generation is None:
            defaults = (2, 20, 8, True, 0)
            config = tuple(
                value if value is not None else default
                for value, default in zip(requested, defaults)
            )
            store._aggregator = DistinctCountAggregator(*config)
            store._start_generation(0, 0, store._snapshot(0))
        else:
            store._generation = generation
            store._aggregator, store._base_lsn = store._load_snapshot(generation)
            store._durable_lsn = store._base_lsn
            store._check_config(requested)
            path_ = wal_path(store._directory, generation)
            durable_bytes = None  # no WAL: a compaction died before creating it
            if path_.exists():
                replay = replay_wal(path_, store._aggregator, store._base_lsn)
                store._wal_records = replay.records
                store._durable_lsn = replay.last_lsn
                _REPLAY_RECORDS.inc(replay.records)
                durable_bytes = replay.durable_bytes
            store._open_wal(durable_bytes)
            store._sweep_stale()
        return store

    def _check_config(self, requested: tuple) -> None:
        """Raise unless every explicitly requested parameter is the persisted one."""
        persisted = self._aggregator.config
        if any(
            value is not None and value != on_disk
            for value, on_disk in zip(requested, persisted)
        ):
            raise ValueError(
                f"store at {self._directory} has configuration "
                f"(t, d, p, sparse, seed)={persisted}, requested {requested}"
            )

    # -- paths ----------------------------------------------------------------

    def _snapshot_path(self, generation: int) -> pathlib.Path:
        return snapshot_path(self._directory, generation)

    def _wal_path(self, generation: int) -> pathlib.Path:
        return wal_path(self._directory, generation)

    def _sweep_stale(self) -> None:
        """Delete every generation's files but the current one's.

        Also deletes every ``walidx-<gen>.log``, whatever its generation:
        the retired group-level WAL index that stores written by earlier
        versions kept beside each WAL.
        """
        for entry in os.listdir(self._directory):
            match = _SNAPSHOT_PATTERN.match(entry) or _WAL_PATTERN.match(entry)
            stale = match is not None and int(match.group(1)) != self._generation
            if stale or re.match(r"^walidx-\d{8}\.log$", entry):
                (self._directory / entry).unlink()

    # -- snapshot & WAL files -------------------------------------------------

    def _snapshot(self, generation: int) -> bytearray:
        """The in-memory state as ``generation``'s snapshot, at :attr:`durable_lsn`."""
        buffer = bytearray(_file_header(TAG_SNAPSHOT))
        write_uvarint(buffer, generation)
        write_uvarint(buffer, self._durable_lsn)
        buffer.extend(self._aggregator.to_bytes())
        return buffer

    def _load_snapshot(self, generation: int) -> tuple[DistinctCountAggregator, int]:
        path = self._snapshot_path(generation)
        aggregator, stored_generation, base_lsn = parse_snapshot(path.read_bytes(), path)
        if stored_generation != generation:
            raise SerializationError(
                f"{path}: names generation {generation} but holds {stored_generation}"
            )
        return aggregator, base_lsn

    def _start_generation(self, generation: int, base_lsn: int, snapshot) -> None:
        """Make ``snapshot`` (at ``base_lsn``) the store's ``generation``.

        The one generation start, for creation, :meth:`compact` and a
        follower's reseed: the snapshot lands atomically, then a fresh
        WAL, and only then are other generations' files deleted, so a
        crash at any point leaves a complete snapshot for :meth:`open`.
        """
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
        started = time.perf_counter()
        atomic_write(self._snapshot_path(generation), snapshot)
        if _metrics.enabled():
            _SNAPSHOT_SECONDS.observe(time.perf_counter() - started)
        self._generation = generation
        self._base_lsn = self._durable_lsn = base_lsn
        self._wal_records = 0
        self._open_wal(None)
        self._sweep_stale()

    def _open_wal(self, durable_bytes: "int | None") -> None:
        """Open the WAL to append: fresh (``None``), or cut to ``durable_bytes``.

        The one WAL truncate: bytes past ``durable_bytes`` are a torn
        tail a crash left, and the cut is synced, so a power cut cannot
        bring them back behind records appended later.
        """
        path = self._wal_path(self._generation)
        if durable_bytes is None:
            atomic_write(path, _file_header(TAG_WAL))
        elif durable_bytes < os.path.getsize(path):
            _TORN_TAIL_RECOVERIES.inc()
            with open(path, "r+b") as handle:
                handle.truncate(durable_bytes)
                os.fsync(handle.fileno())
        self._wal_handle = open(path, "ab")

    # -- the write path: stage, then commit ----------------------------------

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError("store is read-only")
        if self._wal_handle is None:
            name = type(self).__name__
            state = "stopped after a failed WAL append" if self._failed else "is closed"
            raise ValueError(
                f"{name} at {self._directory} {state}; reopen it with {name}.open()"
            )

    @contextlib.contextmanager
    def batch(self) -> Iterator["SketchStore"]:
        """Group every write inside the scope into one commit.

        Writes are staged as they are made and committed when the
        outermost scope exits: each maximal run of consecutive hash
        writes becomes one ``RECORD_SEGMENTS`` record, and each sketch,
        drop or cutover write its own record, in the order written
        (hash, sketch, hash is three records). Then one WAL write, one
        fsync (``fsync=True``), and the fold into memory. Scopes nest. A
        scope left by an exception drops the writes staged inside it and
        writes nothing. Reads inside a scope see the state from before
        it, and :meth:`compact` inside one raises.
        """
        self._check_writable()
        staged = len(self._pending)
        self._depth += 1
        try:
            yield self
        except BaseException:
            del self._pending[staged:]
            raise
        finally:
            self._depth -= 1
        if not self._depth:
            self._commit()

    def _stage(self, kind: int, key: bytes, data) -> None:
        """Stage one validated write; a scope of one."""
        with self.batch():
            self._pending.append((kind, key, data))

    @staticmethod
    def _commit_records(entries: list) -> list:
        """The ``(kind, key, payload)`` records a commit writes for ``entries``.

        Each maximal run of hash entries (staged as ``RECORD_SEGMENTS``
        with a hash array) becomes one segments record; every other
        entry is a record as staged.
        """
        records: list = []
        run: list = []
        for kind, key, data in entries:
            if kind == RECORD_SEGMENTS:
                run.append((key, data))
                continue
            if run:
                records.append((RECORD_SEGMENTS, b"", encode_segments(run)))
                run = []
            records.append((kind, key, data))
        if run:
            records.append((RECORD_SEGMENTS, b"", encode_segments(run)))
        return records

    def _commit(self) -> None:
        """Write every staged write as records, in order, then maybe compact."""
        entries = self._pending
        if not entries:
            return
        self._pending = []
        self._check_writable()
        self._write_records(self._commit_records(entries))
        self._maybe_auto_compact()

    def _write_records(self, records: list) -> int:
        """Log, sync, then apply ``(kind, key, payload)`` records: the one WAL append.

        Frames them at the LSNs after :attr:`durable_lsn`, makes one
        ``write`` (and, with ``fsync=True``, one ``os.fsync``), then
        applies them as one run through :func:`apply_wal_record`. Any
        failure stops the store (:meth:`_fail`). Returns the bytes written.
        """
        buffer = bytearray()
        for lsn, (kind, key, payload) in enumerate(records, self._durable_lsn + 1):
            write_lsn_record(buffer, lsn, kind, key, payload)
        handle = self._wal_handle
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
                apply_wal_record(self._aggregator, records)
        except BaseException:
            self._fail()
            raise
        if _metrics.enabled():
            _WAL_APPEND_BYTES.inc(len(buffer))
            _WAL_APPEND_RECORDS.inc(len(records))
        return len(buffer)

    def _fail(self) -> None:
        """Stop writing after a failed append.

        The WAL may hold some, all or none of the append's bytes, so the
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

        The hashes commit alone, as a one-segment ``RECORD_SEGMENTS``
        record, or as one segment of the record that holds the run of
        hash writes around them in an enclosing :meth:`batch`; inside a
        scope this only stages them. The WAL bytes go out first, and
        only then do the hashes fold into the in-memory sketch, so
        anything a reader can observe is also recoverable.
        """
        hashes = as_hash_array(hashes)
        if len(hashes) == 0:
            return self
        if self._depth:
            # Read at commit: stage a private copy, so the caller may
            # reuse the array inside the scope.
            self._pending.append((RECORD_SEGMENTS, to_bytes(group), hashes.copy()))
        else:
            self._stage(RECORD_SEGMENTS, to_bytes(group), hashes)
        return self

    def merge_sketch(self, group: Hashable, sketch) -> "SketchStore":
        """Durably merge a whole sketch into ``group`` (bucket retirement).

        The sketch's type and parameters are checked before anything is
        staged: a logged record that cannot merge would fail every replay.
        """
        self._aggregator.check_mergeable(sketch)
        self._stage(RECORD_SKETCH, to_bytes(group), sketch.to_bytes())
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

        Write order makes every intermediate crash state recoverable
        (:meth:`_start_generation`): the new snapshot lands atomically,
        the new empty WAL is created, and only then are the previous
        generation's files deleted — :meth:`open` always finds the newest
        intact snapshot and ignores older leftovers.
        """
        if self._depth:
            raise ValueError("compact() inside an open batch() scope")
        self._check_writable()
        started = time.perf_counter()
        generation = self._generation + 1
        with _trace.span("store.compact", generation=generation):
            self._start_generation(generation, self._durable_lsn, self._snapshot(generation))
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
