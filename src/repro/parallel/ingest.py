"""Thread fan-out for the ExaLogLog bulk fold (multi-core ingest).

The fold in :mod:`repro.backends.bulk` is a pure function of a hash slice,
and :func:`~repro.backends.bulk.merge_exaloglog_registers` is exact, so a
batch parallelises without approximation: split the hash array into
contiguous slices, fold each slice on its own thread, and reduce the
per-slice register arrays with the vectorised Algorithm 5 merge in slice
order. The reduction is associative and commutative, so the result is
**bit-identical** to the sequential ``add_hashes`` fold — and therefore to
the scalar ``add_hash`` loop (the :class:`repro.backends.BulkBackend`
contract survives the fan-out).

The fold's NumPy passes release the GIL, so threads reading views of the
one shared hash array run the slices on separate cores with no copy and
no transport. Each call owns its executor and joins it before returning:
no state outlives a call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends.bitops import as_hash_array
from repro.backends.bulk import (
    BULK_CHUNK,
    exaloglog_registers,
    merge_exaloglog_registers,
    supports_int64_registers,
)
from repro.core.params import ExaLogLogParams


class ParallelBulkIngestor:
    """Fan an ExaLogLog hash batch out over threads.

    Parameters
    ----------
    params:
        The target sketch's parameter triple (must fit int64 registers,
        like every vectorised bulk path).
    workers:
        Number of threads. A batch of at most one
        :data:`~repro.backends.bulk.BULK_CHUNK`, or ``workers=1``, folds
        in the calling thread.
    """

    __slots__ = ("_params", "_workers")

    def __init__(self, params: ExaLogLogParams, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not supports_int64_registers(params):
            raise ValueError(
                f"{params} registers exceed int64; parallel ingest requires "
                "the vectorised fold (register_bits <= 63)"
            )
        self._params = params
        self._workers = workers

    @property
    def workers(self) -> int:
        return self._workers

    def slice_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` bounds, at most one per worker.

        Each worker folds a run of whole ``BULK_CHUNK``\\ s (the last slice
        takes the remainder).
        """
        if n <= 0:
            return []
        total_chunks = -(-n // BULK_CHUNK)
        span = -(-total_chunks // self._workers) * BULK_CHUNK
        return [(start, min(start + span, n)) for start in range(0, n, span)]

    def registers(self, hashes) -> np.ndarray:
        """Register array of a fresh sketch after ingesting ``hashes``.

        Bit-identical to ``exaloglog_registers(hashes, params)``; callers
        merge it into existing state exactly as the sequential path does.
        """
        hashes = as_hash_array(hashes)
        bounds = self.slice_bounds(len(hashes))
        if len(bounds) <= 1:
            return exaloglog_registers(hashes, self._params)
        with ThreadPoolExecutor(max_workers=len(bounds)) as executor:
            partials = list(
                executor.map(
                    lambda bound: exaloglog_registers(
                        hashes[bound[0] : bound[1]], self._params
                    ),
                    bounds,
                )
            )
        reduced = partials[0]
        for partial in partials[1:]:
            reduced = merge_exaloglog_registers(reduced, partial, self._params.d)
        return reduced

    def __repr__(self) -> str:
        return f"ParallelBulkIngestor({self._params}, workers={self._workers})"
