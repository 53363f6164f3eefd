"""Hash-partitioned (sharded) group-by aggregation.

The shuffle stage of a distributed ``APPROX_COUNT_DISTINCT(x) GROUP BY g``:
group keys are hash-partitioned across N shards, each shard builds a
partial :class:`~repro.aggregate.DistinctCountAggregator` on its own
worker process, and the partials merge back with the existing
``merge_inplace`` (sketch merges are exact, so partitioning never changes
the result). Each group lives entirely inside one shard, so its sketch is
fed the exact hash sequence the sequential scatter would have fed it —
partial group states are bit-identical to the single-process path.

Shards run on the persistent worker pool (:mod:`repro.parallel.pool`):
hash segments travel through its shared-memory segment and workers read
them zero-copy. Workers return their partial aggregator serialized
(``to_bytes`` blobs are compact and cheap to pickle); the parent
deserializes and merges. A partition with a single non-empty shard runs
in process.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.hashing import hash64
from repro.parallel.pool import get_pool

if TYPE_CHECKING:
    from repro.aggregate import DistinctCountAggregator

#: (t, d, p, sparse, seed) — the aggregator configuration tuple.
AggregatorConfig = tuple[int, int, int, bool, int]


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

    The segments go through one
    :meth:`DistinctCountAggregator.fold_segments` call, exactly as the
    sequential scatter feeds a whole batch.
    """
    from repro.aggregate import DistinctCountAggregator

    return DistinctCountAggregator(*config).fold_segments(keyed_hashes)


def spill_segments(
    directory: str,
    partitions: int,
    writer_id: str,
    segments: Iterable[tuple[bytes, np.ndarray]],
) -> int:
    """Append one shard's segments to its own spill files; records written.

    Each shard owns a distinct ``writer_id``, so the partition files it
    creates never collide with another shard's — spill writes need no
    cross-process coordination (see :mod:`repro.store.spill`).
    """
    from repro.store.spill import SpillWriter

    with SpillWriter(directory, partitions, writer_id) as writer:
        writer.write_segments(segments)
        return writer.records_written


def parallel_spill_write(
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]],
    directory,
    partitions: int,
    workers: int,
) -> int:
    """Spill ``(key, hashes)`` segments to disk on the worker pool.

    The write half of the external GROUP BY: segments shard exactly like
    :func:`parallel_group_fold`, but each worker streams its shard into
    hash-partitioned spill files instead of folding sketches in memory.
    Workers write independently (per-writer file names); the merge pass
    of :class:`repro.store.SpilledGroupBy` is oblivious to how many
    writers produced the files. Returns the total records written.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = _partition_indices(keyed_hashes, workers)
    if not shards:
        return 0
    directory = str(directory)
    # Writer ids embed the parent pid so two parallel aggregations
    # spilling into one directory stay distinguishable.
    suffix = f"x{os.getpid():x}"
    if len(shards) == 1:
        segments = [keyed_hashes[i] for i in shards[0]]
        return spill_segments(directory, partitions, f"s0{suffix}", segments)
    return get_pool().spill(
        directory, partitions, keyed_hashes, shards, suffix, workers=workers
    )


def parallel_group_fold(
    config: AggregatorConfig,
    keyed_hashes: Sequence[tuple[bytes, np.ndarray]],
    workers: int,
) -> "list[DistinctCountAggregator]":
    """Build partial aggregators for ``keyed_hashes`` on the worker pool.

    Returns one partial per non-empty shard (at most ``workers``); the
    caller merges them via ``merge_inplace``. A single-shard partition
    skips the pool entirely.
    """
    from repro.aggregate import DistinctCountAggregator

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = _partition_indices(keyed_hashes, workers)
    if not shards:
        return []
    if len(shards) == 1:
        return [fold_partial(config, [keyed_hashes[i] for i in shards[0]])]
    blobs = get_pool().group_fold(config, keyed_hashes, shards, workers=workers)
    return [DistinctCountAggregator.from_bytes(blob) for blob in blobs]
