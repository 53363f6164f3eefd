"""Multi-core ingest: persistent pool fan-out and sharded aggregation.

Builds the ROADMAP's parallel execution layer on top of the bulk-ingest
backends. :class:`PersistentIngestPool` (usually via :func:`get_pool`) is
the one transport of every ``workers=`` call: it keeps worker processes
alive across calls and ships hash batches through shared memory;
:class:`ParallelBulkIngestor` fans contiguous hash slices across it and
reduces the per-slice register arrays exactly (bit-identical to the
sequential fold); :func:`parallel_group_fold`
hash-partitions group keys into worker shards that build partial
:class:`~repro.aggregate.DistinctCountAggregator`\\ s merged by the
existing exact merge; :func:`parallel_spill_write` streams shards into
spill files; :func:`repro.simulation.replay.replay_many` fans simulation
replays out the same way. Entry points are the opt-in ``workers=``
parameters on ``ExaLogLog.add_hashes``, ``DistinctCountAggregator.add_batch``
and ``SlidingWindowDistinctCounter.add_hashes``.
"""

from repro.parallel.ingest import (
    ParallelBulkIngestor,
    parallel_exaloglog_registers,
)
from repro.parallel.pool import (
    PersistentIngestPool,
    ShmSlice,
    attach_slice,
    get_pool,
    pool_task,
    preferred_start_method,
    shutdown_default_pool,
)
from repro.parallel.shard import (
    parallel_group_fold,
    parallel_spill_write,
    partition_groups,
    shard_of,
)

__all__ = [
    "ParallelBulkIngestor",
    "PersistentIngestPool",
    "ShmSlice",
    "attach_slice",
    "get_pool",
    "parallel_exaloglog_registers",
    "parallel_group_fold",
    "parallel_spill_write",
    "partition_groups",
    "pool_task",
    "preferred_start_method",
    "shard_of",
    "shutdown_default_pool",
]
