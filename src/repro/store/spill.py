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

Partition files use the WAL's record framing without the LSN behind a
4-byte ``TAG_SPILL`` file header. A batch's segments for one partition
are one ``RECORD_SEGMENTS`` record (empty key, the WAL's segments
payload); files written by older versions hold one ``RECORD_HASHES``
record per segment, and both kinds still merge. The merge reads them as
WAL replay does: the one record loop, the WAL's record check and apply,
runs of records. File names carry a writer id —
``part-<partition>-w<pid>.spill`` — so several processes feeding one
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
    SerializationError,
    TAG_SPILL,
    TAG_SPILL_META,
    encode_segments,
    read_records,
    read_uvarint,
    write_record,
    write_uvarint,
)
from repro.store.durable import atomic_write
from repro.store.sketchstore import (
    RECORD_SEGMENTS,
    RecordRun,
    _FILE_HEADER_BYTES,
    _HASH_KINDS,
    _check_file_header,
    _file_header,
    apply_wal_record,
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


def spill_files(directory, partition: "int | None" = None) -> dict[int, list[pathlib.Path]]:
    """Partition index → sorted spill files of all writers in ``directory``.

    ``partition`` lists that partition's files alone, for a point read.
    """
    directory = pathlib.Path(directory)
    pattern = "*" if partition is None else f"{partition:04d}-*"
    grouped: dict[int, list[pathlib.Path]] = {}
    for path in sorted(directory.glob(f"part-{pattern}{_SPILL_SUFFIX}")):
        prefix = path.name.split("-", 2)
        if len(prefix) < 3:
            raise SerializationError(f"{path}: spill file name lacks a writer id")
        grouped.setdefault(int(prefix[1]), []).append(path)
    return grouped


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
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        self._directory = pathlib.Path(directory)
        self._partitions = partitions
        # Building an (empty) aggregator validates the sketch parameters.
        self._configuration = DistinctCountAggregator(t, d, p, sparse, seed).config
        self._directory.mkdir(parents=True, exist_ok=True)
        self._writer_id = f"w{os.getpid()}"
        self._handles: dict[int, Any] = {}
        self._records = 0
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
        concurrently with writers that are still appending: like a WAL
        reader, the merge stops at each file's last complete record, so a
        partially flushed or zero-filled tail is left out, not misread.
        """
        directory = pathlib.Path(directory)
        config, partitions = read_spill_meta(directory)
        groupby = object.__new__(cls)
        groupby._directory = directory
        groupby._partitions = partitions
        groupby._configuration = DistinctCountAggregator(*config).config
        groupby._writer_id = None
        groupby._handles = {}
        groupby._records = 0
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
        return self._records

    @property
    def attached(self) -> bool:
        """True for a read-only view opened with :meth:`attach`."""
        return self._writer_id is None

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
        The keys route in one pass, and each partition they touch gets
        one record holding its segments in input order; segments without
        hashes are skipped.
        """
        from repro.backends import as_hash_array
        from repro.parallel import shards_of

        if self.attached:
            raise ValueError(
                "spill directory was attached read-only; ingest happens in "
                "the writing process"
            )
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

    def _handle(self, partition: int):
        """This writer's append handle on ``partition``'s file, opened on first use."""
        handle = self._handles.get(partition)
        if handle is None:
            path = self._directory / f"part-{partition:04d}-{self._writer_id}{_SPILL_SUFFIX}"
            exists = path.exists()
            handle = open(path, "ab")
            if not exists:
                handle.write(_file_header(TAG_SPILL))
            self._handles[partition] = handle
        return handle

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

    def _files(self, partition: "int | None" = None) -> dict[int, list[pathlib.Path]]:
        """:func:`spill_files`, after flushing this process's writes."""
        self.flush()
        return spill_files(self._directory, partition)

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
        return self._partition_aggregator(self._files(index).get(index, []))

    def _part_count(self) -> int:
        return self._partitions

    def _partition_aggregator(self, files) -> DistinctCountAggregator:
        """One partition's exact partial aggregator, folded from ``files``.

        Records fold in runs (:class:`~repro.store.sketchstore.RecordRun`),
        so memory stays O(one run). An attached spill stops at a file's
        last complete record, as WAL readers do; the writing spill's
        files are its own, so a byte after that record raises.
        """
        aggregator = DistinctCountAggregator(*self.config)
        run = RecordRun(lambda records: apply_wal_record(aggregator, records))

        def gather(lsn, kind: int, key: bytes, payload: bytes) -> None:
            if kind not in _HASH_KINDS:
                raise SerializationError(f"unexpected spill record kind {kind:#x}")
            run.add(kind, key, payload)

        for path in files:
            with open(path, "rb") as handle:
                _check_file_header(handle.read(_FILE_HEADER_BYTES), TAG_SPILL, path)
                read_records(handle, gather, lsn=False)
                end = handle.tell()
                if not self.attached and handle.read(1):
                    raise SerializationError(
                        f"{path}: record at offset {end}: truncated spill record"
                    )
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

    def flush(self) -> None:
        """Hand this writer's appended records to the OS, where other
        processes (an attached spill) can read them."""
        for handle in self._handles.values():
            handle.flush()

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

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
