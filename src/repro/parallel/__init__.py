"""Multi-core ingest: the single-sketch fold fan-out.

:class:`ParallelBulkIngestor` folds contiguous hash slices on threads and
reduces the per-slice register arrays exactly (bit-identical to the
sequential fold). Entry points are the opt-in ``workers=`` parameters on
``ExaLogLog.add_hashes`` and ``SlidingWindowDistinctCounter.add_batch``/
``add_hashes``.

Grouped ingest (``DistinctCountAggregator.add_batch``, the spill) has no
``workers=``: one in-process ``fold_segments`` call folds a whole batch,
and sharding it over workers only added serial work in the caller.
:func:`shard_of` routes group keys to cluster shards and spill
partitions.
"""

from repro.parallel.ingest import ParallelBulkIngestor
from repro.parallel.shard import shard_of

__all__ = [
    "ParallelBulkIngestor",
    "shard_of",
]
