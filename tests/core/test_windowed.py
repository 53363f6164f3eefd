"""Sliding-window distinct counting."""

import math
import warnings

import numpy as np
import pytest

from repro.query.executor import execute
from repro.query.plan import Estimate, Scan, TopK, Window
from repro.windowed import SlidingWindowDistinctCounter


def bucket_bytes(counter):
    """Each live bucket's serialized sketch, by bucket key."""
    return {key: counter.group_sketch(key).to_bytes() for key in counter.groups()}


class TestBasics:
    def test_empty(self):
        counter = SlidingWindowDistinctCounter(window=60.0)
        assert counter.estimate(now=100.0) == 0.0

    def test_single_bucket_counts(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        for i in range(1000):
            counter.add(f"user-{i}", at=5.0)
        assert counter.estimate(now=5.0) == pytest.approx(1000, rel=0.1)

    def test_duplicates_across_buckets_not_double_counted(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        for at in (0.0, 15.0, 30.0, 45.0):
            for i in range(500):
                counter.add(f"user-{i}", at=at)
        assert counter.estimate(now=45.0) == pytest.approx(500, rel=0.1, abs=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowDistinctCounter(window=0.0)
        with pytest.raises(ValueError):
            SlidingWindowDistinctCounter(window=10.0, buckets=0)


class TestExpiry:
    def test_old_items_leave_the_window(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        for i in range(1000):
            counter.add(f"old-{i}", at=0.0)
        for i in range(100):
            counter.add(f"new-{i}", at=300.0)
        assert counter.estimate(now=300.0) == pytest.approx(100, rel=0.15, abs=3)

    def test_memory_bounded(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=4, p=6)
        for step in range(200):
            counter.add(f"item-{step}", at=float(step * 10))
        assert counter.active_buckets <= 5
        assert counter.memory_bytes <= 5 * (16 + 224)

    def test_partial_expiry(self):
        """Items age out bucket by bucket."""
        counter = SlidingWindowDistinctCounter(window=40.0, buckets=4, p=10)
        for i in range(400):
            counter.add(f"a-{i}", at=5.0)   # bucket 0
        for i in range(400):
            counter.add(f"b-{i}", at=35.0)  # bucket 3
        # At now=45 bucket 0 has left the window (buckets 1..4).
        assert counter.estimate(now=45.0) == pytest.approx(400, rel=0.15)
        # At now=35 both are covered.
        assert counter.estimate(now=35.0) == pytest.approx(800, rel=0.12)


class TestQueries:
    def test_per_bucket_breakdown(self):
        counter = SlidingWindowDistinctCounter(window=30.0, buckets=3, p=10)
        for i in range(300):
            counter.add(f"x-{i}", at=1.0)
        for i in range(600):
            counter.add(f"y-{i}", at=11.0)
        breakdown = dict(counter.estimate_per_bucket(now=21.0))
        assert breakdown[0] == pytest.approx(300, rel=0.15)
        assert breakdown[1] == pytest.approx(600, rel=0.15)

    def test_per_bucket_breakdown_is_bit_identical_to_scalar(self):
        """The batched per-bucket solve equals per-sketch ``estimate()``.

        ``estimate_per_bucket`` routes every live bucket through one
        simultaneous Newton solve; the floats must be *bit*-identical to
        estimating each bucket sketch on its own, not just close.
        """
        rng = np.random.Generator(np.random.PCG64(21))
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=8)
        for at in (1.0, 11.0, 21.0, 31.0, 41.0, 51.0):
            size = int(rng.integers(1, 2000))
            counter.add_batch(
                rng.integers(0, 1 << 62, size=size, dtype=np.int64), at=at
            )
        batched = counter.estimate_per_bucket(now=51.0)
        assert len(batched) == counter.active_buckets
        for bucket, value in batched:
            assert value == counter.group_sketch(f"bucket:{bucket}").estimate(), (
                f"bucket {bucket}: batched estimate is not bit-identical"
            )

    def test_per_bucket_empty_window(self):
        counter = SlidingWindowDistinctCounter(window=30.0, buckets=3, p=8)
        assert counter.estimate_per_bucket(now=10.0) == []
        counter.add("x", at=5.0)
        assert counter.estimate_per_bucket(now=1000.0) == []  # all expired

    def test_out_of_order_arrival(self):
        counter = SlidingWindowDistinctCounter(window=30.0, buckets=3, p=10)
        counter.add("late", at=25.0)
        counter.add("early", at=5.0)
        assert counter.estimate(now=25.0) == pytest.approx(2.0, abs=0.5)

    def test_top_ranks_like_topk(self):
        """Buckets 9 and 10 hold one identical item, so their estimates tie:
        ``top`` breaks the tie by ascending key, byte by byte, as ``TopK``
        does (``b"bucket:10" < b"bucket:9"``)."""
        counter = SlidingWindowDistinctCounter(window=20.0, buckets=20, p=8)
        counter.add("x", at=9.0)
        counter.add("x", at=10.0)
        assert len(set(counter.estimates().values())) == 1
        assert [key for key, _ in counter.top(2)] == [b"bucket:10", b"bucket:9"]
        assert execute(TopK(Scan(), 2), counter).rows == tuple(counter.top(2))

    def test_repr(self):
        assert "active=0" in repr(SlidingWindowDistinctCounter(window=10.0))


class TestExpiredBucketRegression:
    """Late events older than the window must hit an explicit skip path.

    Regression: the counter used to create a sketch for an expired
    bucket, evict it immediately, and hand the detached sketch back —
    writes landed in state that was silently discarded.
    """

    def _counter(self):
        counter = SlidingWindowDistinctCounter(window=50.0, buckets=5, p=6)
        for i in range(200):
            counter.add(f"live-{i}", at=1000.0 + (i % 5) * 10.0)
        return counter

    def test_sketch_for_expired_bucket_is_none(self):
        """An expired add creates no group."""
        counter = self._counter()
        groups = list(counter.groups())
        counter.add("ancient", at=0.0)
        counter.add("ancient", at=10.0)
        assert list(counter.groups()) == groups
        assert counter.group_sketch(b"bucket:0") is None
        assert counter.group_sketch(b"bucket:1") is None

    def test_expired_add_leaves_state_unchanged(self):
        counter = self._counter()
        before = (
            counter.active_buckets,
            counter.memory_bytes,
            counter.estimate(now=1040.0),
            list(counter.groups()),
            bucket_bytes(counter),
        )
        for i in range(50):
            counter.add(f"ancient-{i}", at=float(i))
        after = (
            counter.active_buckets,
            counter.memory_bytes,
            counter.estimate(now=1040.0),
            list(counter.groups()),
            bucket_bytes(counter),
        )
        assert after == before

    def test_scalar_and_bulk_drop_expired_identically(self):
        rng = np.random.Generator(np.random.PCG64(12))
        items = rng.integers(0, 1 << 62, size=2000, dtype=np.int64)
        # Half recent, half far older than the window, interleaved unsorted.
        times = np.where(
            rng.uniform(size=2000) < 0.5,
            rng.uniform(950.0, 1050.0, size=2000),
            rng.uniform(0.0, 100.0, size=2000),
        )
        scalar = SlidingWindowDistinctCounter(window=50.0, buckets=5, p=6)
        for i in range(200):
            scalar.add(f"live-{i}", at=1000.0 + (i % 5) * 10.0)
        bulk = SlidingWindowDistinctCounter(window=50.0, buckets=5, p=6)
        for i in range(200):
            bulk.add(f"live-{i}", at=1000.0 + (i % 5) * 10.0)

        from repro.hashing import hash64

        for item, at in zip(items.tolist(), times.tolist()):
            scalar.add_hash(hash64(item, 0), at)
        bulk.add_batch(items, at=times)

        assert bucket_bytes(bulk) == bucket_bytes(scalar)
        assert bulk.estimate(now=1050.0) == scalar.estimate(now=1050.0)

    def test_whole_expired_batch_scalar_timestamp(self):
        counter = self._counter()
        before = bucket_bytes(counter)
        counter.add_batch(np.arange(500, dtype=np.int64), at=3.0)
        assert bucket_bytes(counter) == before

    def test_out_of_order_in_window_creation_keeps_sorted_order(self):
        """Per-bucket reads ascend by bucket; groups() keeps creation order."""
        counter = SlidingWindowDistinctCounter(window=50.0, buckets=5, p=6)
        counter.add("newest", at=100.0)
        counter.add("late-but-live", at=70.0)  # older bucket, still in window
        counter.add("middle", at=85.0)
        buckets = [bucket for bucket, _ in counter.estimate_per_bucket(now=100.0)]
        assert buckets == [7, 8, 10]
        assert list(counter.groups()) == [b"bucket:10", b"bucket:7", b"bucket:8"]
        assert counter.estimate(now=100.0) == pytest.approx(3.0, abs=0.5)


class TestRetirementOrder:
    """Evicted buckets reach an attached store complete and oldest first."""

    def test_buckets_evicted_together_retire_oldest_first(self, tmp_path):
        from repro.store import SketchStore

        with SketchStore.open(tmp_path / "s", p=6) as store:
            counter = SlidingWindowDistinctCounter(
                window=50.0, buckets=5, p=6, store=store
            )
            for at in (100.0, 70.0, 60.0):
                counter.add(f"at-{at}", at=at)
            counter.add("far-ahead", at=200.0)  # evicts buckets 10, 7 and 6
            assert list(store.groups()) == [b"bucket:6", b"bucket:7", b"bucket:10"]

    def test_batch_folds_a_bucket_before_evicting_it(self, tmp_path):
        """A bucket that a later bucket of its own batch evicts retires with its items."""
        from repro.store import SketchStore

        rng = np.random.Generator(np.random.PCG64(31))
        hashes = rng.integers(0, 1 << 64, size=600, dtype=np.uint64)
        at = np.concatenate(
            [np.full(200, 5.0), np.full(200, 25.0), np.full(200, 95.0)]
        )  # buckets 0 and 2, then bucket 9 evicts both
        with SketchStore.open(tmp_path / "loop", p=6) as loop_store, SketchStore.open(
            tmp_path / "batch", p=6
        ) as batch_store:
            loop = SlidingWindowDistinctCounter(
                window=50.0, buckets=5, p=6, store=loop_store
            )
            for hash_value, time in zip(hashes.tolist(), at.tolist()):
                loop.add_hash(hash_value, time)
            batch = SlidingWindowDistinctCounter(
                window=50.0, buckets=5, p=6, store=batch_store
            )
            batch.add_hashes(hashes, at=at)
            assert bucket_bytes(batch) == bucket_bytes(loop)
            assert list(batch_store.groups()) == [b"bucket:0", b"bucket:2"]
            assert batch_store.aggregator == loop_store.aggregator

    @pytest.mark.parametrize(
        "times",
        [[5.0, 200.0, 5.0], [5.0, 30.0, 200.0, 5.0, 30.0, 210.0, 199.0]],
        ids=["late-item", "late-items-of-two-buckets"],
    )
    def test_late_items_of_a_bucket_evicted_before_them_are_skipped_as_in_the_loop(
        self, tmp_path, times
    ):
        """An item whose bucket the batch evicted before it never reaches the store."""
        from repro.store import SketchStore

        rng = np.random.Generator(np.random.PCG64(len(times)))
        hashes = rng.integers(0, 1 << 64, size=len(times) + 1, dtype=np.uint64)
        at = np.array(times)
        stores = {}
        for mode in ("loop", "batch"):
            with SketchStore.open(tmp_path / mode, p=6) as store:
                counter = SlidingWindowDistinctCounter(
                    window=50.0, buckets=5, p=6, store=store
                )
                counter.add_hash(int(hashes[-1]), 0.0)
                hashes_in_batch = hashes[:-1]
                if mode == "loop":
                    for hash_value, time in zip(hashes_in_batch.tolist(), at.tolist()):
                        counter.add_hash(hash_value, time)
                else:
                    counter.add_hashes(hashes_in_batch, at=at)
                counter.flush_to_store()
                stores[mode] = (bucket_bytes(counter), store.aggregator.to_bytes())
        assert stores["batch"] == stores["loop"]


class TestTimeValidation:
    """Window lengths must be finite and > 0; timestamps and ``now`` finite."""

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -10.0])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(ValueError, match=f"window must be finite and > 0, got {window!r}"):
            SlidingWindowDistinctCounter(window=window)

    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    def test_scalar_timestamp_must_be_finite(self, at):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        with pytest.raises(ValueError, match=f"at must be finite, got {at!r}"):
            counter.add("x", at=at)
        assert counter.active_buckets == 0

    def test_batch_at_one_time_must_be_finite(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        with pytest.raises(ValueError, match="at must be finite, got nan"):
            counter.add_hashes(np.arange(10, dtype=np.uint64), at=math.nan)
        assert counter.active_buckets == 0

    def test_batch_names_first_bad_timestamp(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        at = np.array([1.0, 2.0, np.inf, np.nan])
        with pytest.raises(ValueError, match=r"at\[2\] must be finite, got inf"):
            counter.add_hashes(np.arange(4, dtype=np.uint64), at=at)

    def test_refused_batch_ingests_nothing(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        counter.add_batch(np.arange(100, dtype=np.int64), at=5.0)
        before = (counter.active_buckets, counter.estimate_per_bucket(now=15.0))
        at = np.full(100, 15.0)
        at[-1] = np.nan
        with pytest.raises(ValueError, match=r"at\[99\]"):
            counter.add_batch(np.arange(100, 200, dtype=np.int64), at=at)
        assert (counter.active_buckets, counter.estimate_per_bucket(now=15.0)) == before

    def test_refused_batch_retires_nothing_into_store(self, tmp_path):
        from repro.store import SketchStore

        with SketchStore.open(tmp_path / "s", p=6) as store:
            counter = SlidingWindowDistinctCounter(
                window=60.0, buckets=6, p=6, store=store
            )
            at = np.full(100, 5.0)
            at[0] = np.nan
            with pytest.raises(ValueError, match=r"at\[0\] must be finite"):
                counter.add_hashes(np.arange(100, dtype=np.uint64), at=at)
            counter.flush_to_store()
            assert list(store.groups()) == []

    @pytest.mark.parametrize(
        "entry, call",
        [
            ("add_hash", lambda counter: counter.add_hash(2, at=1e308)),
            (
                "add_hashes",
                lambda counter: counter.add_hashes(np.arange(3, dtype=np.uint64), at=1e308),
            ),
            ("estimate", lambda counter: counter.estimate(now=1e308)),
            ("estimate_per_bucket", lambda counter: counter.estimate_per_bucket(now=-1e308)),
            (
                "query window",
                lambda counter: execute(
                    Estimate(Window(Scan(), duration=0.008, end=1e308)), counter
                ),
            ),
        ],
        ids=["add_hash", "add_hashes", "estimate", "estimate_per_bucket", "query_window"],
    )
    def test_a_bucket_index_outside_int64_is_refused(self, entry, call):
        """A finite time whose bucket index overflows int64 raises ValueError."""
        counter = SlidingWindowDistinctCounter(window=0.008, buckets=8, p=6)
        counter.add_hash(1, at=0.0)
        name = {"add_hash": "at", "add_hashes": "at", "query window": "end"}.get(entry, "now")
        with pytest.raises(ValueError, match=rf"^{name}=-?1e\+308 puts its bucket index outside int64$"):
            call(counter)
        assert list(counter.groups()) == [b"bucket:0"]

    def test_a_batch_names_its_first_index_outside_int64_and_ingests_nothing(self, tmp_path):
        from repro.store import SketchStore

        with SketchStore.open(tmp_path / "s", p=6) as store:
            counter = SlidingWindowDistinctCounter(
                window=0.008, buckets=8, p=6, store=store
            )
            at = np.array([0.0, 100.0, 1e308, -1e308, np.nan])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"at\[2\]=1e\+308 puts its bucket index outside int64"):
                    counter.add_hashes(np.arange(5, dtype=np.uint64), at=at)
            assert counter.active_buckets == 0
            assert counter.flush_to_store() == 0 and len(store) == 0

    @pytest.mark.parametrize("now", [math.nan, math.inf])
    def test_now_must_be_finite(self, now):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        counter.add("x", at=5.0)
        with pytest.raises(ValueError, match=f"now must be finite, got {now!r}"):
            counter.estimate(now=now)
        with pytest.raises(ValueError, match=f"now must be finite, got {now!r}"):
            counter.estimate_per_bucket(now=now)


class TestBulkIngestion:
    """add_batch/add_hashes must equal the sequential add loop exactly."""

    def _reference(self, pairs, **kwargs):
        counter = SlidingWindowDistinctCounter(**kwargs)
        for item, at in pairs:
            counter.add(item, at=at)
        return counter

    @staticmethod
    def _state(counter):
        return bucket_bytes(counter)

    def test_scalar_timestamp_batch(self):
        items = np.arange(500, dtype=np.int64)
        reference = self._reference(
            [(int(i), 7.0) for i in items], window=60.0, buckets=6, p=6
        )
        bulk = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        bulk.add_batch(items, at=7.0)
        assert self._state(bulk) == self._state(reference)

    def test_per_item_timestamps_with_expiry(self):
        rng = np.random.Generator(np.random.PCG64(8))
        items = rng.integers(0, 1 << 62, size=3000, dtype=np.int64)
        times = np.sort(rng.uniform(0.0, 500.0, size=3000))
        reference = self._reference(
            zip(items.tolist(), times.tolist()), window=60.0, buckets=6, p=6
        )
        bulk = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=6)
        bulk.add_batch(items, at=times)
        assert self._state(bulk) == self._state(reference)
        assert bulk.estimate(now=500.0) == reference.estimate(now=500.0)

    def test_out_of_order_timestamps(self):
        rng = np.random.Generator(np.random.PCG64(9))
        items = rng.integers(0, 1 << 62, size=2000, dtype=np.int64)
        times = rng.uniform(0.0, 300.0, size=2000)  # unsorted
        reference = self._reference(
            zip(items.tolist(), times.tolist()), window=50.0, buckets=5, p=6
        )
        bulk = SlidingWindowDistinctCounter(window=50.0, buckets=5, p=6)
        bulk.add_batch(items, at=times)
        assert self._state(bulk) == self._state(reference)

    def test_chunked_equals_single_batch(self):
        rng = np.random.Generator(np.random.PCG64(10))
        items = rng.integers(0, 1 << 62, size=1500, dtype=np.int64)
        times = np.sort(rng.uniform(0.0, 200.0, size=1500))
        single = SlidingWindowDistinctCounter(window=40.0, buckets=4, p=6)
        single.add_batch(items, at=times)
        chunked = SlidingWindowDistinctCounter(window=40.0, buckets=4, p=6)
        for start in range(0, 1500, 250):
            chunked.add_batch(items[start : start + 250], at=times[start : start + 250])
        assert self._state(chunked) == self._state(single)

    def test_length_mismatch_raises(self):
        counter = SlidingWindowDistinctCounter(window=10.0)
        with pytest.raises(ValueError):
            counter.add_hashes(
                np.array([1, 2, 3], dtype=np.uint64), at=np.array([1.0, 2.0])
            )
