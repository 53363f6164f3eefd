"""Sliding-window counters retiring evicted buckets into a SketchStore."""

import pytest

from repro.core.exaloglog import ExaLogLog
from repro.store import SketchStore
from repro.windowed import SlidingWindowDistinctCounter


def _drive(counter, n=60):
    for i in range(n):
        counter.add(f"user{i}", at=float(i))


def _store_history_estimate(store, t=2, d=20, p=8):
    """Merge every retired bucket in the store into one estimate."""
    merged = ExaLogLog(t, d, p)
    for key in store.groups():
        sketch = store.aggregator._groups[key]
        if hasattr(sketch, "densify"):
            sketch = sketch.densify()
        merged.merge_inplace(sketch)
    return merged.estimate()


class TestRetirement:
    def test_evicted_buckets_land_in_store(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=10.0, buckets=5, p=8, store=store
        )
        _drive(counter, 60)  # 30 buckets of width 2; 5 live, 25 evicted
        assert counter.active_buckets == 5
        assert len(store) == 25
        assert all(key.startswith(b"bucket:") for key in store.groups())
        store.close()

    def test_full_history_recoverable_from_store(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=10.0, buckets=5, p=8, store=store
        )
        _drive(counter, 60)
        counter.flush_to_store()  # live buckets too
        reference = ExaLogLog(2, 20, 8)
        for i in range(60):
            reference.add(f"user{i}")
        assert _store_history_estimate(store) == reference.estimate()
        store.close()

    def test_flush_is_idempotent(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=10.0, buckets=5, p=8, store=store
        )
        _drive(counter, 20)
        first = counter.flush_to_store()
        second = counter.flush_to_store()
        assert first == second == counter.active_buckets
        reference = ExaLogLog(2, 20, 8)
        for i in range(20):
            reference.add(f"user{i}")
        assert _store_history_estimate(store) == reference.estimate()
        store.close()

    def test_retired_buckets_survive_crash(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=10.0, buckets=5, p=8, store=store
        )
        _drive(counter, 60)
        # Crash: no close(), which would fsync; recovery must come from
        # the WAL. Only the log's file handle is released.
        store._wal_handle.close()
        del store
        recovered = SketchStore.open(tmp_path / "s")
        assert len(recovered) == 25
        assert _store_history_estimate(recovered) > 0
        recovered.close()

    def test_empty_buckets_not_retired(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=10.0, buckets=2, p=8, store=store
        )
        counter.add("a", at=0.0)
        # Jump far ahead: bucket 0 evicts, the gap buckets never existed.
        counter.add("b", at=100.0)
        assert len(store) == 1
        store.close()

    def test_window_estimates_unaffected_by_store(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        with_store = SlidingWindowDistinctCounter(
            window=10.0, buckets=5, p=8, store=store
        )
        without = SlidingWindowDistinctCounter(window=10.0, buckets=5, p=8)
        _drive(with_store, 60)
        _drive(without, 60)
        assert with_store.estimate(now=59.0) == without.estimate(now=59.0)
        store.close()


class TestConfigValidation:
    def test_mismatched_store_params_rejected(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=10)
        with pytest.raises(ValueError, match="retired"):
            SlidingWindowDistinctCounter(window=10.0, buckets=5, p=8, store=store)
        store.close()

    def test_mismatched_seed_rejected(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8, seed=0)
        with pytest.raises(ValueError, match="seed"):
            SlidingWindowDistinctCounter(
                window=10.0, buckets=5, p=8, seed=7, store=store
            )
        store.close()

    def test_flush_without_store_rejected(self):
        counter = SlidingWindowDistinctCounter(window=10.0, buckets=5, p=8)
        with pytest.raises(ValueError, match="no store"):
            counter.flush_to_store()

    def test_custom_prefix(self, tmp_path):
        store = SketchStore.open(tmp_path / "s", p=8)
        counter = SlidingWindowDistinctCounter(
            window=2.0, buckets=1, p=8, store=store, store_prefix="w7:"
        )
        counter.add("a", at=0.0)
        counter.add("b", at=10.0)
        assert list(store.groups()) == [b"w7:0"]
        store.close()
