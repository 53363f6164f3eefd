"""Thread fan-out: parallel ingest must be bit-identical to sequential."""

import numpy as np
import pytest

from repro.backends import BULK_CHUNK, exaloglog_registers, merge_exaloglog_registers
from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.obs import metrics
from repro.parallel import ParallelBulkIngestor

PARAMS = make_params(2, 20, 8)


def _hashes(n, seed=7):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


class TestSliceBounds:
    def test_empty(self):
        assert ParallelBulkIngestor(PARAMS, 4).slice_bounds(0) == []

    def test_single_chunk_single_slice(self):
        ingestor = ParallelBulkIngestor(PARAMS, 4)
        assert ingestor.slice_bounds(BULK_CHUNK - 1) == [(0, BULK_CHUNK - 1)]

    # n counts thousandths of a chunk: 1000 is exactly one BULK_CHUNK.
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 4096, 12345])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_alignment_and_coverage(self, n, workers):
        size = n * BULK_CHUNK // 1000
        bounds = ParallelBulkIngestor(PARAMS, workers).slice_bounds(size)
        # Contiguous cover of [0, size) with at most `workers` slices.
        assert len(bounds) <= workers
        assert bounds[0][0] == 0 and bounds[-1][1] == size
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        # Every interior boundary is chunk-aligned.
        for start, _ in bounds[1:]:
            assert start % BULK_CHUNK == 0


class TestBitIdentical:
    """The BulkBackend contract must survive the fan-out."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_registers_equal_sequential_fold(self, workers, slice_counts):
        hashes = _hashes(2 * BULK_CHUNK + 4321)
        expected = exaloglog_registers(hashes, PARAMS)
        ingestor = ParallelBulkIngestor(PARAMS, workers)
        assert np.array_equal(ingestor.registers(hashes), expected)
        assert slice_counts == [min(workers, 3)]

    def test_add_hashes_workers_matches_scalar_loop(self):
        # Large enough to actually fan out at the default chunk size.
        hashes = _hashes(2 * BULK_CHUNK + 123, seed=3)
        sequential = ExaLogLog(2, 20, 8).add_hashes(hashes)
        parallel = ExaLogLog(2, 20, 8).add_hashes(hashes, workers=2)
        assert parallel.to_bytes() == sequential.to_bytes()

    def test_merge_into_non_empty_sketch(self):
        first, second = _hashes(30_000, seed=1), _hashes(3 * BULK_CHUNK, seed=2)
        sequential = ExaLogLog(2, 20, 8).add_hashes(first).add_hashes(second)
        ingestor = ParallelBulkIngestor(PARAMS, 3)
        parallel = ExaLogLog(2, 20, 8).add_hashes(first)
        batch = ingestor.registers(second)
        merged = merge_exaloglog_registers(parallel.registers, batch, PARAMS.d)
        assert merged.tolist() == list(sequential.registers)

    def test_small_batch_degenerates_in_process(self, slice_counts):
        # One slice: folded in the calling thread, same result.
        hashes = _hashes(100, seed=9)
        ingestor = ParallelBulkIngestor(PARAMS, 4)
        assert np.array_equal(
            ingestor.registers(hashes), exaloglog_registers(hashes, PARAMS)
        )
        assert slice_counts == [1]

    def test_slice_errors_surface_in_the_caller(self, monkeypatch):
        from repro.parallel import ingest

        def failing(hashes, params):
            raise RuntimeError("fold failed")

        monkeypatch.setattr(ingest, "exaloglog_registers", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            ParallelBulkIngestor(PARAMS, 2).registers(_hashes(2 * BULK_CHUNK))


class TestMetrics:
    def test_fan_out_folds_record_in_the_one_registry(self, slice_counts):
        hashes = _hashes(2 * BULK_CHUNK + 77, seed=5)
        folds = metrics.counter("backend.folds")
        folded = metrics.counter("backend.hashes_folded")
        with metrics.instrumented():
            before = (folds.value, folded.value)
            ExaLogLog(2, 20, 8).add_hashes(hashes, workers=2)
            after = (folds.value, folded.value)
        assert slice_counts == [2]
        assert after[0] - before[0] == 2
        assert after[1] - before[1] == len(hashes)


class TestValidation:
    def test_bad_workers(self):
        hashes = _hashes(100)
        for workers in (0, -2):
            calls = {
                "ingestor": lambda: ParallelBulkIngestor(PARAMS, workers),
                "add_hashes": lambda: ExaLogLog(2, 20, 8).add_hashes(hashes, workers=workers),
            }
            for call in calls.values():
                with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
                    call()
        # None still folds in this process.
        assert (
            ExaLogLog(2, 20, 8).add_hashes(hashes, workers=None).to_bytes()
            == ExaLogLog(2, 20, 8).add_hashes(hashes).to_bytes()
        )

    def test_unsupported_registers(self):
        wide = make_params(0, 64, 8)  # 70-bit registers exceed int64
        with pytest.raises(ValueError):
            ParallelBulkIngestor(wide, 2)
