"""Spill-to-disk GROUP BY: exact external aggregation in bounded memory.

An in-memory :class:`~repro.aggregate.DistinctCountAggregator` holds
every group at once: a ``key → row`` dict entry plus the group's tokens
or register row, about 165 bytes of resident memory per group at 10^6
groups (``BENCH_store.json``'s in-memory row), mostly the dict. That
grows with the group count until RAM runs out. This module runs the
classic external hash-aggregation plan instead:

1. **Partition & spill** — incoming ``(group, hashes)`` segments are
   hash-partitioned by :func:`repro.parallel.shard_of` (a batch's keys
   in one :func:`repro.parallel.shards_of` pass) and appended to
   per-partition files, one record per partition per batch. A group
   lives entirely inside one partition, and writers never buffer more
   than the batch at hand.
2. **Merge** — partitions are read back *one at a time*; each builds a
   partial aggregator holding only its own groups (``1/partitions`` of
   the total) and yields it. Sketch folds are commutative/idempotent and
   merges exact, so per-group states are bit-identical to the all-in-RAM
   scatter.

Peak memory is therefore ``O(largest partition)`` regardless of total
group count. Every read — ``top``, ``estimates``, ``groups``, a scan —
is the shared :class:`~repro.query.source.PartitionedSource` walk over
the partition aggregators, and a point read builds one partition.

Partition files use the shared record framing of
:mod:`repro.storage.serialization` behind a 4-byte ``TAG_SPILL`` file
header. A batch's segments for one partition are one ``RECORD_SEGMENTS``
record (empty key, the WAL's segments payload); files written by older
versions hold one ``RECORD_HASHES`` record per segment, and both kinds
still merge. File names carry a writer id —
``part-<partition>-<writer>.spill`` — so several processes feeding one
aggregation append to their own files without coordination; the merge
pass reads every file of a partition. Each writer appends in process:
fanning the appends out over worker processes measured slower than one
writer, because the parent still partitioned, packed and shipped every
segment.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from repro.aggregate import DistinctCountAggregator, segment
from repro.query.source import PartitionedSource
from repro.storage.serialization import (
    IncompleteRecordError,
    SerializationError,
    TAG_SPILL,
    TAG_SPILL_META,
    decode_segments,
    encode_segments,
    read_record_from,
    read_uvarint,
    write_record,
    write_uvarint,
)
from repro.store.durable import atomic_write
from repro.store.sketchstore import (
    RECORD_HASHES,
    RECORD_SEGMENTS,
    RecordRun,
    _FILE_HEADER_BYTES,
    _check_file_header,
    _file_header,
)

#: Default partition fan-out; at 1e6 groups each partition then holds
#: ~16k groups, a few MB of aggregator state during its merge pass.
DEFAULT_PARTITIONS = 64

_SPILL_SUFFIX = ".spill"
_META_NAME = "spill.meta"


def write_spill_meta(directory, config, partitions: int) -> None:
    """Persist a spill directory's configuration sidecar (atomic, synced).

    The sidecar is what lets a *different* process — a query-serving
    reader that never wrote a byte of the spill — reconstruct partition
    aggregators with the exact sketch parameters the writers used (see
    :meth:`SpilledGroupBy.attach`).
    """
    t, d, p, sparse, seed = config
    buffer = bytearray(_file_header(TAG_SPILL_META))
    buffer.extend((t, d, p, 1 if sparse else 0))
    write_uvarint(buffer, seed)
    write_uvarint(buffer, partitions)
    atomic_write(pathlib.Path(directory) / _META_NAME, buffer)


def read_spill_meta(directory) -> tuple[tuple[int, int, int, bool, int], int]:
    """Read a spill directory's ``(config, partitions)`` sidecar."""
    path = pathlib.Path(directory) / _META_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError as error:
        # Keep the type (SpilledGroupBy.__init__ branches on it) but name
        # the directory — a bare errno is hard to attribute when a query
        # process attaches to many shard/spill directories at once.
        raise FileNotFoundError(
            f"{pathlib.Path(directory)}: not a spill directory (missing the "
            f"{_META_NAME} sidecar a SpilledGroupBy writer persists)"
        ) from error
    offset = _check_file_header(data, TAG_SPILL_META, path)
    if len(data) < offset + 4:
        raise SerializationError(f"{path}: truncated spill configuration")
    t, d, p, sparse_flag = data[offset : offset + 4]
    offset += 4
    seed, offset = read_uvarint(data, offset)
    partitions, offset = read_uvarint(data, offset)
    if offset != len(data):
        raise SerializationError(
            f"{path}: {len(data) - offset} trailing bytes after spill configuration"
        )
    return (t, d, p, bool(sparse_flag), seed), partitions


class SpillWriter:
    """Appends ``(key, hashes)`` segments to hash-partitioned spill files.

    Each :meth:`write_segments` call routes its keys in one pass and
    appends one ``RECORD_SEGMENTS`` record per partition it touches;
    :meth:`write` is the one-segment case. Multiple writers may target
    one directory concurrently: each owns its own set of files,
    distinguished by ``writer_id`` (default: ``w<pid>``). Files are
    created lazily on the first record for their partition.
    """

    def __init__(self, directory, partitions: int = DEFAULT_PARTITIONS, writer_id: str | None = None) -> None:
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._partitions = partitions
        self._writer_id = writer_id if writer_id is not None else f"w{os.getpid()}"
        if "-" in self._writer_id or "/" in self._writer_id:
            raise ValueError(f"writer_id {self._writer_id!r} may not contain '-' or '/'")
        self._handles: dict[int, Any] = {}
        self._records = 0

    @property
    def partitions(self) -> int:
        return self._partitions

    @property
    def writer_id(self) -> str:
        return self._writer_id

    @property
    def records_written(self) -> int:
        """Records appended: one per partition per :meth:`write_segments` call."""
        return self._records

    def _handle(self, partition: int):
        handle = self._handles.get(partition)
        if handle is None:
            path = self._directory / f"part-{partition:04d}-{self._writer_id}{_SPILL_SUFFIX}"
            exists = path.exists()
            handle = open(path, "ab")
            if not exists:
                handle.write(_file_header(TAG_SPILL))
            self._handles[partition] = handle
        return handle

    def write(self, key: bytes, hashes: np.ndarray) -> None:
        """Append one group segment (canonical key, uint64 hash array)."""
        self.write_segments([(key, hashes)])

    def write_segments(self, segments: Iterable[tuple[bytes, np.ndarray]]) -> None:
        """Append a batch's segments: one record per partition they route to.

        Segments without hashes are skipped; each record keeps its
        segments in input order.
        """
        from repro.backends import as_hash_array
        from repro.parallel import shards_of

        batch = []
        for key, hashes in segments:
            hashes = as_hash_array(hashes)
            if len(hashes):
                batch.append((key, hashes))
        if not batch:
            return
        parts: dict[int, list] = {}
        owners = shards_of([key for key, _ in batch], self._partitions)
        for part, item in zip(owners.tolist(), batch):
            parts.setdefault(part, []).append(item)
        for part, run in parts.items():
            buffer = bytearray()
            write_record(buffer, RECORD_SEGMENTS, b"", encode_segments(run))
            self._handle(part).write(buffer)
        self._records += len(parts)

    def flush(self) -> None:
        for handle in self._handles.values():
            handle.flush()

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spill_files(directory) -> dict[int, list[pathlib.Path]]:
    """Partition index → sorted spill files of all writers in ``directory``."""
    directory = pathlib.Path(directory)
    grouped: dict[int, list[pathlib.Path]] = {}
    for path in sorted(directory.glob(f"part-*{_SPILL_SUFFIX}")):
        prefix = path.name.split("-", 2)
        if len(prefix) < 3:
            raise SerializationError(f"{path}: spill file name lacks a writer id")
        grouped.setdefault(int(prefix[1]), []).append(path)
    return grouped


def read_spill_file(
    path, tolerate_torn_tail: bool = False
) -> Iterator[tuple[bytes, np.ndarray]]:
    """Yield the ``(key, hashes)`` segments of one spill file, in order.

    A ``RECORD_SEGMENTS`` record yields each of its segments, a
    ``RECORD_HASHES`` record (older files) its one segment.

    For the *writing* aggregation, spill files are transient (written and
    read inside one run), so a torn tail is not survivable — any
    incomplete record raises :class:`SerializationError`. A concurrent
    read-only query process (:meth:`SpilledGroupBy.attach`) instead sets
    ``tolerate_torn_tail=True``: iteration stops cleanly at the last
    complete record, the WAL discipline — the writer's in-flight append
    is simply not part of that query's view. CRC failures on *complete*
    records stay fatal either way. Errors read ``<path>: record at offset
    <n>: <reason>``, like the WAL's.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as handle:
        # Streamed, so the merge pass holds one run of records (see
        # SpilledGroupBy._partition_aggregator), not one file: a
        # partition's raw hash payloads can dwarf its sketch states.
        _check_file_header(handle.read(_FILE_HEADER_BYTES), TAG_SPILL, path)
        while True:
            start = handle.tell()
            try:
                record = read_record_from(handle)
                if record is None:
                    return
                kind, key, payload = record
                if kind == RECORD_SEGMENTS:
                    segments = decode_segments(payload)
                elif kind == RECORD_HASHES:
                    if len(payload) % 8:
                        raise SerializationError(
                            f"hash payload of {len(payload)} bytes is not a multiple of 8"
                        )
                    segments = [(key, np.frombuffer(payload, dtype="<u8"))]
                else:
                    raise SerializationError(f"unexpected spill record kind {kind:#x}")
            except IncompleteRecordError as error:
                if tolerate_torn_tail:
                    return
                raise SerializationError(
                    f"{path}: record at offset {start}: truncated spill record"
                ) from error
            except SerializationError as error:
                raise SerializationError(
                    f"{path}: record at offset {start}: {error}"
                ) from error
            yield from segments


class SpilledGroupBy(PartitionedSource):
    """External ``APPROX_COUNT_DISTINCT(x) GROUP BY g`` over spill files.

    Accepts the same batches as
    :meth:`~repro.aggregate.DistinctCountAggregator.add_batch` but routes
    every group segment to disk; results come from a partition-at-a-time
    merge, so memory stays bounded while the number of groups is not.
    Every read is :class:`~repro.query.source.PartitionedSource`'s over
    the partition aggregators, which are built one at a time; a point
    read builds only its group's partition. ``len(spill)`` and
    ``key in spill`` build partitions too, so a spill's truth value is
    never cheap to test.

    >>> groupby = SpilledGroupBy(tmp_path / "spill", p=8)
    >>> len(groupby.add_batch(["DE", "AT", "DE"], ["alice", "bob", "carol"]))
    2
    >>> sorted(round(v) for v in groupby.estimates().values())
    [1, 2]
    >>> [(key, round(value)) for key, value in groupby.top(1)], "AT" in groupby
    ([(b'DE', 2)], True)
    >>> groupby.close()
    """

    def __init__(
        self,
        directory,
        t: int = 2,
        d: int = 20,
        p: int = 8,
        sparse: bool = True,
        seed: int = 0,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> None:
        self._directory = pathlib.Path(directory)
        self._partitions = partitions
        # Building an (empty) aggregator validates the sketch parameters.
        self._configuration = DistinctCountAggregator(t, d, p, sparse, seed).config
        self._writer = SpillWriter(self._directory, partitions)
        # Persist (or validate against) the configuration sidecar so a
        # reader process can attach to these files later.
        try:
            on_disk, disk_partitions = read_spill_meta(self._directory)
        except FileNotFoundError:
            write_spill_meta(self._directory, self.config, partitions)
        else:
            if on_disk != self.config or disk_partitions != partitions:
                raise ValueError(
                    f"spill directory {self._directory} was written with "
                    f"configuration {on_disk} and {disk_partitions} partitions, "
                    f"requested {self.config} and {partitions}"
                )

    @classmethod
    def attach(cls, directory) -> "SpilledGroupBy":
        """Open an existing spill directory read-only (a query process).

        Configuration and partition fan-out come from the ``spill.meta``
        sidecar the writing process persisted; no file is created or
        appended — ingest methods raise, while every query path
        (:meth:`estimates`, :meth:`top`, :meth:`estimate`,
        :meth:`partition_aggregators`) works exactly as for the writer,
        concurrently with writers that are still appending (spill records
        are framed like WAL records, so partially flushed tails are
        detected, not misread).
        """
        directory = pathlib.Path(directory)
        config, partitions = read_spill_meta(directory)
        groupby = object.__new__(cls)
        groupby._directory = directory
        groupby._partitions = partitions
        groupby._configuration = DistinctCountAggregator(*config).config
        groupby._writer = None
        return groupby

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    @property
    def partitions(self) -> int:
        return self._partitions

    @property
    def config(self) -> tuple[int, int, int, bool, int]:
        return self._configuration

    @property
    def records_spilled(self) -> int:
        """Records this writer appended: one per partition per batch."""
        return self._writer.records_written if self._writer is not None else 0

    @property
    def attached(self) -> bool:
        """True for a read-only view opened with :meth:`attach`."""
        return self._writer is None

    def _require_writer(self) -> SpillWriter:
        if self._writer is None:
            raise ValueError(
                "spill directory was attached read-only; ingest happens in "
                "the writing process"
            )
        return self._writer

    # -- ingest ---------------------------------------------------------------

    def add_batch(self, groups: "Iterable[Hashable]", items: Any) -> "SpilledGroupBy":
        """Spill one ``(groups, items)`` batch; returns ``self``."""
        segments = segment(groups, items, self.config[4])
        if segments:
            self.write_segments(segments)
        return self

    def write_segments(self, segments: Iterable[tuple[bytes, np.ndarray]]) -> None:
        """Spill pre-scattered ``(canonical key, hashes)`` segments.

        The hand-off point of ``DistinctCountAggregator.add_batch(spill=...)``.
        """
        self._require_writer().write_segments(segments)

    def add_pairs(self, pairs: Iterable[tuple[Hashable, Any]]) -> "SpilledGroupBy":
        """Spill an iterable of ``(group, item)`` pairs in bounded chunks."""
        import itertools

        from repro.backends.bulk import BULK_CHUNK

        iterator = iter(pairs)
        while chunk := list(itertools.islice(iterator, BULK_CHUNK)):
            groups, items = zip(*chunk)
            self.add_batch(groups, list(items))
        return self

    # -- merge ----------------------------------------------------------------

    def _files(self) -> dict[int, list[pathlib.Path]]:
        """Partition index → spill files, after flushing this process's writes."""
        if self._writer is not None:
            self._writer.flush()
        return spill_files(self._directory)

    def partition_aggregators(self) -> Iterator[DistinctCountAggregator]:
        """Yield one exact partial aggregator per non-empty partition.

        Flushes pending writes first (when this process is the writer);
        each partial holds only its partition's groups, which is the
        memory bound of the whole plan.
        """
        for _, files in sorted(self._files().items()):
            yield self._partition_aggregator(files)

    parts = partition_aggregators

    def _part(self, index: int) -> DistinctCountAggregator:
        return self._partition_aggregator(self._files().get(index, []))

    def _part_count(self) -> int:
        return self._partitions

    def _partition_aggregator(self, files) -> DistinctCountAggregator:
        """One partition's exact partial aggregator, folded from ``files``."""
        aggregator = DistinctCountAggregator(*self.config)
        # Records fold in runs, one fold_segments call each: memory stays
        # O(one run).
        run = RecordRun(aggregator.fold_segments)
        for path in files:
            # Attached readers run concurrently with writers, so a torn
            # tail is "not yet durable", not corruption.
            for key, hashes in read_spill_file(
                path, tolerate_torn_tail=self._writer is None
            ):
                run.add((key, hashes), len(key) + hashes.nbytes)
        run.flush()
        return aggregator

    def top(self, count: int) -> list[tuple[bytes, float]]:
        """The ``count`` groups with the largest estimates, ties by
        ascending key, merging one partition at a time.

        Defined here rather than inherited so that instrumentation which
        wraps methods on this class (``benchmarks/system/tracing.py``)
        can time the partition merge.
        """
        return super().top(count)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()

    def cleanup(self) -> None:
        """Close and delete all spill files (the aggregation is consumed)."""
        self.close()
        for files in spill_files(self._directory).values():
            for path in files:
                path.unlink()
        meta = self._directory / _META_NAME
        if meta.exists():
            meta.unlink()

    def __enter__(self) -> "SpilledGroupBy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SpilledGroupBy(directory={str(self._directory)!r}, "
            f"partitions={self._partitions}, spilled={self.records_spilled})"
        )
