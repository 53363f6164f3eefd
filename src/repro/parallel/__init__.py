"""Multi-core ingest: the single-sketch fold fan-out.

:class:`ParallelBulkIngestor` folds contiguous hash slices on threads and
reduces the per-slice register arrays exactly (bit-identical to the
sequential fold). Its entry point is the opt-in ``workers=`` parameter
of ``ExaLogLog.add_hashes``.

Grouped ingest (``DistinctCountAggregator.add_batch``, the spill, the
sliding-window counter's buckets) has no ``workers=``: one in-process
``fold_segments`` call folds a whole batch, and sharding it over
workers only added serial work in the caller.
:func:`shard_of` routes group keys to cluster shards and spill
partitions; :func:`shards_of` routes a batch's keys in one pass.
"""

from repro.parallel.ingest import ParallelBulkIngestor
from repro.parallel.shard import shard_of, shards_of

__all__ = [
    "ParallelBulkIngestor",
    "shard_of",
    "shards_of",
]
