"""Process-pool fan-out for the ExaLogLog bulk fold (multi-core ingest).

The fold in :mod:`repro.backends.bulk` is a pure function of a hash slice,
and :func:`~repro.backends.bulk.merge_exaloglog_registers` is exact, so a
batch parallelises without approximation: split the hash array into
contiguous slices, fold each slice on its own worker process, and reduce
the per-slice register arrays with the vectorised Algorithm 5 merge. The
reduction is associative and commutative, so the result is
**bit-identical** to the sequential ``add_hashes`` fold — and therefore to
the scalar ``add_hash`` loop (the :class:`repro.backends.BulkBackend`
contract survives the pool).

Slices run on the persistent worker pool (:mod:`repro.parallel.pool`):
workers stay alive across calls and read their slice zero-copy from one
shared-memory segment, so the steady-state cost of a ``workers=`` call is
one memcpy into that segment plus dispatch.
"""

from __future__ import annotations

import numpy as np

from repro.backends.bitops import as_hash_array
from repro.backends.bulk import (
    BULK_CHUNK,
    exaloglog_registers,
    supports_int64_registers,
)
from repro.core.params import ExaLogLogParams
from repro.parallel.pool import get_pool


class ParallelBulkIngestor:
    """Fan an ExaLogLog hash batch out to the persistent worker pool.

    Parameters
    ----------
    params:
        The target sketch's parameter triple (must fit int64 registers,
        like every vectorised bulk path).
    workers:
        Number of worker processes. ``1`` degenerates to the in-process
        fold (the pool is not used).
    chunk:
        Slice granularity: per-worker slices are whole multiples of this
        many hashes, so a batch of at most one chunk stays in process.
        Merges are exact, so where the slices start never changes the
        result. Defaults to :data:`~repro.backends.bulk.BULK_CHUNK`; tests
        shrink it to exercise the pool on small batches.
    pool:
        The :class:`~repro.parallel.pool.PersistentIngestPool` to use;
        ``None`` uses the process-wide default.
    """

    __slots__ = ("_chunk", "_params", "_pool", "_workers")

    def __init__(
        self,
        params: ExaLogLogParams,
        workers: int,
        chunk: int = BULK_CHUNK,
        pool=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if not supports_int64_registers(params):
            raise ValueError(
                f"{params} registers exceed int64; parallel ingest requires "
                "the vectorised fold (register_bits <= 63)"
            )
        self._params = params
        self._workers = workers
        self._chunk = chunk
        self._pool = pool

    @property
    def workers(self) -> int:
        return self._workers

    def slice_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` bounds, at most one per worker.

        Each worker folds a run of whole chunks (the last slice takes the
        remainder).
        """
        if n <= 0:
            return []
        total_chunks = -(-n // self._chunk)
        span = -(-total_chunks // self._workers) * self._chunk
        return [(start, min(start + span, n)) for start in range(0, n, span)]

    def registers(self, hashes) -> np.ndarray:
        """Register array of a fresh sketch after ingesting ``hashes``.

        Bit-identical to ``exaloglog_registers(hashes, params)``; callers
        merge it into existing state exactly as the sequential path does.
        """
        hashes = as_hash_array(hashes)
        bounds = self.slice_bounds(len(hashes))
        if len(bounds) <= 1 or self._workers == 1:
            return exaloglog_registers(hashes, self._params)
        pool = self._pool if self._pool is not None else get_pool()
        return pool.fold_registers(
            hashes, bounds, self._params, workers=self._workers
        )

    def __repr__(self) -> str:
        return (
            f"ParallelBulkIngestor({self._params}, workers={self._workers}, "
            f"chunk={self._chunk})"
        )


def parallel_exaloglog_registers(
    hashes,
    params: ExaLogLogParams,
    workers: int,
    chunk: int = BULK_CHUNK,
    pool=None,
) -> np.ndarray:
    """Functional shorthand for :meth:`ParallelBulkIngestor.registers`."""
    return ParallelBulkIngestor(params, workers, chunk, pool=pool).registers(hashes)
