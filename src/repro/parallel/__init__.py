"""Multi-core ingest: the persistent pool and the single-sketch fan-out.

Builds the ROADMAP's parallel execution layer on top of the bulk-ingest
backends. :class:`PersistentIngestPool` (usually via :func:`get_pool`) is
the one transport of every ``workers=`` call: it keeps worker processes
alive across calls and ships hash batches through shared memory;
:class:`ParallelBulkIngestor` fans contiguous hash slices across it and
reduces the per-slice register arrays exactly (bit-identical to the
sequential fold); :func:`repro.simulation.replay.replay_many` fans
simulation replays out the same way. Entry points are the opt-in
``workers=`` parameters on ``ExaLogLog.add_hashes``,
``SlidingWindowDistinctCounter.add_batch``/``add_hashes`` and
``replay_many``.

Grouped ingest (``DistinctCountAggregator.add_batch``, the spill) has no
``workers=``: one in-process ``fold_segments`` call folds a whole batch,
and sharding it over workers only added serial work in the parent.
:func:`shard_of` routes group keys to cluster shards and spill
partitions.
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
from repro.parallel.shard import shard_of

__all__ = [
    "ParallelBulkIngestor",
    "PersistentIngestPool",
    "ShmSlice",
    "attach_slice",
    "get_pool",
    "parallel_exaloglog_registers",
    "pool_task",
    "preferred_start_method",
    "shard_of",
    "shutdown_default_pool",
]
