"""Process-pool fan-out: parallel ingest must be bit-identical to sequential."""

import multiprocessing

import numpy as np
import pytest

from repro.backends import BULK_CHUNK, exaloglog_registers
from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.parallel import (
    ParallelBulkIngestor,
    parallel_exaloglog_registers,
    preferred_start_method,
)
from repro.windowed import SlidingWindowDistinctCounter

PARAMS = make_params(2, 20, 8)


def _hashes(n, seed=7):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


class TestSliceBounds:
    def test_empty(self):
        assert ParallelBulkIngestor(PARAMS, 4).slice_bounds(0) == []

    def test_single_chunk_single_slice(self):
        ingestor = ParallelBulkIngestor(PARAMS, 4, chunk=1000)
        assert ingestor.slice_bounds(999) == [(0, 999)]

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 4096, 12345])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_alignment_and_coverage(self, n, workers):
        ingestor = ParallelBulkIngestor(PARAMS, workers, chunk=1000)
        bounds = ingestor.slice_bounds(n)
        # Contiguous cover of [0, n) with at most `workers` slices.
        assert len(bounds) <= workers
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        # Every interior boundary is chunk-aligned.
        for start, _ in bounds[1:]:
            assert start % 1000 == 0


class TestBitIdentical:
    """The BulkBackend contract must survive the pool."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_registers_equal_sequential_fold(self, workers):
        hashes = _hashes(50_000)
        expected = exaloglog_registers(hashes, PARAMS)
        ingestor = ParallelBulkIngestor(PARAMS, workers, chunk=1 << 12)
        assert np.array_equal(ingestor.registers(hashes), expected)

    def test_functional_shorthand(self):
        hashes = _hashes(20_000, seed=11)
        expected = exaloglog_registers(hashes, PARAMS)
        result = parallel_exaloglog_registers(hashes, PARAMS, 2, chunk=1 << 12)
        assert np.array_equal(result, expected)

    def test_add_hashes_workers_matches_scalar_loop(self):
        # Large enough to actually fan out at the default chunk size.
        hashes = _hashes(2 * BULK_CHUNK + 123, seed=3)
        sequential = ExaLogLog(2, 20, 8).add_hashes(hashes)
        parallel = ExaLogLog(2, 20, 8).add_hashes(hashes, workers=2)
        assert parallel.to_bytes() == sequential.to_bytes()

    def test_merge_into_non_empty_sketch(self):
        first, second = _hashes(30_000, seed=1), _hashes(40_000, seed=2)
        sequential = ExaLogLog(2, 20, 8).add_hashes(first).add_hashes(second)
        ingestor = ParallelBulkIngestor(PARAMS, 3, chunk=1 << 12)
        parallel = ExaLogLog(2, 20, 8).add_hashes(first)
        batch = ingestor.registers(second)
        from repro.backends import merge_exaloglog_registers

        merged = merge_exaloglog_registers(parallel.registers, batch, PARAMS.d)
        assert merged.tolist() == list(sequential.registers)

    def test_small_batch_degenerates_in_process(self):
        # One slice: no pool, same result.
        hashes = _hashes(100, seed=9)
        ingestor = ParallelBulkIngestor(PARAMS, 4)
        assert np.array_equal(
            ingestor.registers(hashes), exaloglog_registers(hashes, PARAMS)
        )


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelBulkIngestor(PARAMS, 0)

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            ParallelBulkIngestor(PARAMS, 2, chunk=0)

    def test_unsupported_registers(self):
        wide = make_params(0, 64, 8)  # 70-bit registers exceed int64
        with pytest.raises(ValueError):
            ParallelBulkIngestor(wide, 2)

    def test_preferred_start_method_is_available(self):
        assert preferred_start_method() in multiprocessing.get_all_start_methods()


class TestWindowedWorkers:
    def test_windowed_counter_workers_equivalence(self):
        rng = np.random.Generator(np.random.PCG64(21))
        items = rng.integers(0, 1 << 62, size=5_000, dtype=np.int64)
        times = rng.uniform(0.0, 300.0, size=5_000)
        plain = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        plain.add_batch(items, at=times)
        pooled = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        pooled.add_batch(items, at=times, workers=2)
        assert {
            bucket: sketch.to_bytes() for bucket, sketch in pooled._sketches.items()
        } == {bucket: sketch.to_bytes() for bucket, sketch in plain._sketches.items()}
