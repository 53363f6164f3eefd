"""Hash-partitioned (sharded) group-by aggregation.

The shuffle stage of a distributed ``APPROX_COUNT_DISTINCT(x) GROUP BY g``:
group keys are hash-partitioned across N shards, each shard builds a
partial :class:`~repro.aggregate.DistinctCountAggregator` on its own
worker process, and the partials merge back with the existing
``merge_inplace`` (sketch merges are exact, so partitioning never changes
the result). Each group lives entirely inside one shard, so its sketch is
fed the exact hash sequence the sequential scatter would have fed it —
partial group states are bit-identical to the single-process path.

Workers return their partial aggregator serialized (``to_bytes`` blobs are
compact and cheap to pickle); the parent deserializes and merges. By
default hash segments travel through the persistent shared-memory pool
(:mod:`repro.parallel.pool`) — workers stay alive across calls and read
the segments zero-copy. Callers that pin an explicit ``start_method`` get
the legacy per-call transports: under ``fork`` the segment list is
published in a module global right before the pool forks, so workers
inherit it copy-on-write and receive only segment indices; under
``spawn``/``forkserver`` each job carries its segments (pickled). The
worker functions are top-level and their arguments picklable, so every
``multiprocessing`` start method works.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.hashing import hash64
from repro.parallel.ingest import preferred_start_method

if TYPE_CHECKING:
    from repro.aggregate import DistinctCountAggregator

#: (t, d, p, sparse, seed) — the aggregator configuration tuple.
AggregatorConfig = tuple[int, int, int, bool, int]

#: Segment list published to fork workers (copy-on-write inheritance);
#: only set under the lock between publishing and the fork itself.
_FORK_SEGMENTS: Sequence[tuple[bytes, np.ndarray]] | None = None
_FORK_LOCK = threading.Lock()


def shard_of(key: bytes, shards: int) -> int:
    """Deterministic shard of a canonical group key (Murmur3-partitioned)."""
    return hash64(key) % shards


def _partition_indices(
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]], shards: int
) -> list[list[int]]:
    """Non-empty shards as index lists into ``keyed_hashes``."""
    buckets: list[list[int]] = [[] for _ in range(shards)]
    for position, (key, _) in enumerate(keyed_hashes):
        buckets[shard_of(key, shards)].append(position)
    return [bucket for bucket in buckets if bucket]


def partition_groups(
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]], shards: int
) -> list[list[tuple[bytes, np.ndarray]]]:
    """Partition ``(key, hashes)`` segments into non-empty shards."""
    return [
        [keyed_hashes[position] for position in bucket]
        for bucket in _partition_indices(keyed_hashes, shards)
    ]


def fold_partial(
    config: AggregatorConfig, keyed_hashes: Iterable[tuple[bytes, np.ndarray]]
) -> "DistinctCountAggregator":
    """One shard's partial aggregator: every segment folded under its key.

    Each segment goes through :meth:`DistinctCountAggregator.fold`, exactly
    as the sequential scatter feeds it.
    """
    from repro.aggregate import DistinctCountAggregator

    aggregator = DistinctCountAggregator(*config)
    for key, hashes in keyed_hashes:
        aggregator.fold(key, hashes)
    return aggregator


def _build_partial(
    job: tuple[AggregatorConfig, list[tuple[bytes, np.ndarray]]]
) -> bytes:
    """Worker: build one shard's partial aggregator, return it serialized."""
    return fold_partial(*job).to_bytes()


def _build_partial_fork(job: tuple[AggregatorConfig, list[int]]) -> bytes:
    """Worker: build a shard from fork-inherited segments (fork transport)."""
    config, indices = job
    assert _FORK_SEGMENTS is not None
    return _build_partial((config, [_FORK_SEGMENTS[i] for i in indices]))


def _spill_shard(job: tuple[str, int, str, "list[tuple[bytes, np.ndarray]]"]) -> int:
    """Worker: append one shard's segments to its own spill files.

    Each worker owns a distinct ``writer_id``, so the partition files it
    creates never collide with another worker's — spill writes need no
    cross-process coordination (see :mod:`repro.store.spill`).
    """
    from repro.store.spill import SpillWriter

    directory, partitions, writer_id, segments = job
    with SpillWriter(directory, partitions, writer_id) as writer:
        writer.write_segments(segments)
        return writer.records_written


def _spill_shard_fork(job: tuple[str, int, str, list[int]]) -> int:
    """Worker: spill a shard from fork-inherited segments (fork transport)."""
    directory, partitions, writer_id, indices = job
    assert _FORK_SEGMENTS is not None
    return _spill_shard(
        (directory, partitions, writer_id, [_FORK_SEGMENTS[i] for i in indices])
    )


def parallel_spill_write(
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]],
    directory,
    partitions: int,
    workers: int,
    start_method: str | None = None,
) -> int:
    """Spill ``(key, hashes)`` segments to disk on a process pool.

    The write half of the external GROUP BY: segments shard exactly like
    :func:`parallel_group_fold`, but each worker streams its shard into
    hash-partitioned spill files instead of folding sketches in memory.
    Workers write independently (per-writer file names); the merge pass
    of :class:`repro.store.SpilledGroupBy` is oblivious to how many
    writers produced the files. Returns the total records written.
    """
    global _FORK_SEGMENTS

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = _partition_indices(keyed_hashes, workers)
    if not shards:
        return 0
    directory = str(directory)
    if len(shards) == 1:
        segments = [keyed_hashes[i] for i in shards[0]]
        return _spill_shard((directory, partitions, f"s0x{os.getpid():x}", segments))
    # Writer ids embed the parent pid so two parallel aggregations
    # spilling into one directory stay distinguishable.
    suffix = f"x{os.getpid():x}"
    if start_method is None:
        from repro.parallel.pool import get_pool

        return get_pool().spill(
            directory, partitions, keyed_hashes, shards, suffix, workers=workers
        )
    method = start_method
    context = multiprocessing.get_context(method)
    if method == "fork":
        worker = _spill_shard_fork
        jobs = [
            (directory, partitions, f"s{index}{suffix}", shard)
            for index, shard in enumerate(shards)
        ]
        with _FORK_LOCK:
            _FORK_SEGMENTS = keyed_hashes
            try:
                pool = context.Pool(min(workers, len(jobs)))
            finally:
                _FORK_SEGMENTS = None
    else:
        worker = _spill_shard
        jobs = [
            (
                directory,
                partitions,
                f"s{index}{suffix}",
                [keyed_hashes[i] for i in shard],
            )
            for index, shard in enumerate(shards)
        ]
        pool = context.Pool(min(workers, len(jobs)))
    try:
        counts = pool.map(worker, jobs)
    finally:
        pool.close()
        pool.join()
    return sum(counts)


def parallel_group_fold(
    config: AggregatorConfig,
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]],
    workers: int,
    start_method: str | None = None,
) -> "list[DistinctCountAggregator]":
    """Build partial aggregators for ``keyed_hashes`` on a process pool.

    Returns one partial per non-empty shard (at most ``workers``); the
    caller merges them via ``merge_inplace``. A single-shard partition
    skips the pool entirely.
    """
    global _FORK_SEGMENTS

    from repro.aggregate import DistinctCountAggregator

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = _partition_indices(keyed_hashes, workers)
    if not shards:
        return []
    if len(shards) == 1:
        return [fold_partial(config, [keyed_hashes[i] for i in shards[0]])]
    if start_method is None:
        from repro.parallel.pool import get_pool

        blobs = get_pool().group_fold(config, keyed_hashes, shards, workers=workers)
        return [DistinctCountAggregator.from_bytes(blob) for blob in blobs]
    method = start_method
    context = multiprocessing.get_context(method)
    if method == "fork":
        worker = _build_partial_fork
        jobs = [(config, shard) for shard in shards]
        # Workers capture the segment list at fork time (pool creation);
        # reset right after so nothing stays pinned.
        with _FORK_LOCK:
            _FORK_SEGMENTS = keyed_hashes
            try:
                pool = context.Pool(min(workers, len(jobs)))
            finally:
                _FORK_SEGMENTS = None
    else:
        worker = _build_partial
        jobs = [
            (config, [keyed_hashes[i] for i in shard]) for shard in shards
        ]
        pool = context.Pool(min(workers, len(jobs)))
    try:
        blobs = pool.map(worker, jobs)
    finally:
        pool.close()
        pool.join()
    return [DistinctCountAggregator.from_bytes(blob) for blob in blobs]
