"""Sliding-window distinct counting.

The paper's application list (Sec. 1) includes sliding-HyperLogLog-based
port-scan detection; this module provides the standard bucketed-window
construction on ExaLogLog: time is divided into fixed-width buckets, each
bucket owns a small sketch, and a query merges the sketches of the buckets
overlapping the window. Expired buckets are dropped, so memory is bounded
by ``buckets_in_window + 1`` sketches.

The window is *bucket-aligned*: a query covers between ``window`` and
``window + bucket_width`` of history (the usual trade-off of the bucketed
approach; exact sliding windows need timestamped registers and lose
ExaLogLog's fixed-size state).

Live buckets are RAM-only and vanish when the bucket ages out — unless a
:class:`repro.store.SketchStore` is attached (``store=``), in which case
every evicted bucket's sketch retires durably into the store under
``<store_prefix><bucket index>`` before being dropped, so the full
history remains queryable (and crash-recoverable) after the window moved
on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.core.exaloglog import ExaLogLog
from repro.hashing import hash64

if TYPE_CHECKING:
    from repro.store import SketchStore


class SlidingWindowDistinctCounter:
    """Approximate distinct count over the trailing ``window`` time units.

    >>> counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=8)
    >>> counter.add("alice", at=0.0)
    >>> counter.add("bob", at=30.0)
    >>> round(counter.estimate(now=30.0))
    2
    """

    __slots__ = (
        "_bucket_width",
        "_buckets",
        "_d",
        "_p",
        "_seed",
        "_sketches",
        "_store",
        "_store_prefix",
        "_t",
    )

    def __init__(
        self,
        window: float,
        buckets: int = 8,
        t: int = 2,
        d: int = 20,
        p: int = 8,
        seed: int = 0,
        store: "SketchStore | None" = None,
        store_prefix: str = "bucket:",
    ) -> None:
        if window <= 0.0:
            raise ValueError("window must be positive")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self._bucket_width = window / buckets
        self._buckets = buckets
        self._t = t
        self._d = d
        self._p = p
        self._seed = seed
        if store is not None:
            store_t, store_d, store_p, _, store_seed = store.config
            if (store_t, store_d, store_p) != (t, d, p):
                raise ValueError(
                    f"store sketches are (t, d, p)=({store_t}, {store_d}, "
                    f"{store_p}); the window uses ({t}, {d}, {p}) — retired "
                    "buckets could not merge"
                )
            if store_seed != seed:
                raise ValueError(
                    f"store hashes with seed {store_seed}, the window with "
                    f"seed {seed} — merging their sketches would double-count "
                    "identical items"
                )
        self._store = store
        self._store_prefix = store_prefix
        #: bucket index -> sketch, oldest first.
        self._sketches: OrderedDict[int, ExaLogLog] = OrderedDict()

    @property
    def window(self) -> float:
        """The configured window length."""
        return self._bucket_width * self._buckets

    @property
    def config(self) -> tuple[int, int, int, bool, int]:
        """``(t, d, p, sparse, seed)`` of the bucket sketches.

        Buckets are always dense :class:`~repro.core.exaloglog.ExaLogLog`
        instances, so the sparse flag is ``False``; the tuple matches the
        attached store's configuration when one is present (checked in
        ``__init__`` up to the sparse flag, which stores may set freely —
        dense and sparse sketches of one parameterisation merge exactly).
        """
        return (self._t, self._d, self._p, False, self._seed)

    @property
    def bucket_width(self) -> float:
        return self._bucket_width

    @property
    def active_buckets(self) -> int:
        """Number of bucket sketches currently held."""
        return len(self._sketches)

    @property
    def memory_bytes(self) -> int:
        """Modelled footprint of all bucket sketches."""
        return sum(sketch.memory_bytes for sketch in self._sketches.values())

    def _bucket_of(self, at: float) -> int:
        return int(at // self._bucket_width)

    def _evict_before(self, bucket: int) -> None:
        cutoff = bucket - self._buckets
        while self._sketches:
            oldest = next(iter(self._sketches))
            if oldest > cutoff:
                break
            self._retire(oldest, self._sketches[oldest])
            del self._sketches[oldest]

    def _retire(self, bucket: int, sketch: ExaLogLog) -> None:
        """Persist an evicted bucket into the attached store (if any)."""
        if self._store is not None and not sketch.is_empty:
            self._store.merge_sketch(f"{self._store_prefix}{bucket}", sketch)

    def flush_to_store(self) -> int:
        """Retire all *live* buckets into the store without evicting them.

        Durable shutdown/checkpoint hook: after this, the store holds
        every bucket ever fed to the counter (evicted ones retired on
        eviction, live ones now). Safe to call repeatedly — sketch merges
        are idempotent, so re-flushing a bucket is a no-op for its
        estimate. Returns the number of buckets written.
        """
        if self._store is None:
            raise ValueError("no store attached to this counter")
        flushed = 0
        for bucket, sketch in self._sketches.items():
            if not sketch.is_empty:
                self._store.merge_sketch(f"{self._store_prefix}{bucket}", sketch)
                flushed += 1
        return flushed

    # -- updates -----------------------------------------------------------------

    def add(self, item: Any, at: float) -> None:
        """Record ``item`` observed at time ``at`` (monotone or not)."""
        self.add_hash(hash64(item, self._seed), at)

    def add_hash(self, hash_value: int, at: float) -> None:
        bucket = self._bucket_of(at)
        sketch = self._sketch_for(bucket)
        if sketch is not None:
            sketch.add_hash(hash_value)

    def _sketch_for(self, bucket: int) -> ExaLogLog | None:
        """The bucket's sketch, creating (and evicting) as needed.

        Returns ``None`` for a bucket that is already expired — older
        than the whole window relative to the newest bucket seen. (A
        created-then-evicted sketch would silently swallow the caller's
        writes; the explicit skip also saves the wasted allocation.)
        """
        sketch = self._sketches.get(bucket)
        if sketch is not None:
            return sketch
        newest = next(reversed(self._sketches)) if self._sketches else None
        if newest is not None and bucket <= newest - self._buckets:
            return None
        sketch = ExaLogLog(self._t, self._d, self._p)
        self._sketches[bucket] = sketch
        if newest is not None and bucket < newest:
            # Out-of-order (but in-window) creation: rotate the larger
            # keys behind the new one — O(buckets) on this rare path
            # instead of re-sorting the whole dict on every creation.
            for key in [k for k in self._sketches if k > bucket]:
                self._sketches.move_to_end(key)
        else:
            # New newest bucket: insertion order is already sorted; old
            # buckets may now have fallen out of the window.
            self._evict_before(bucket)
        return sketch

    def add_batch(self, items: Any, at, workers: int | None = None) -> None:
        """Record a batch of items; ``at`` is one time or one per item."""
        from repro.hashing.batch import hash_items

        self.add_hashes(hash_items(items, self._seed), at, workers)

    def add_hashes(self, hashes, at, workers: int | None = None) -> None:
        """Bulk insert hashes observed at time(s) ``at``.

        ``at`` may be a scalar (whole batch in one bucket) or an array of
        per-item timestamps. Buckets are processed in first-appearance
        order, so creations — and therefore evictions and expired-bucket
        skips, which only happen at first appearance — occur exactly as
        in the sequential loop; the final state is identical.

        ``workers`` forwards to each bucket sketch's thread
        :meth:`~repro.core.exaloglog.ExaLogLog.add_hashes` fan-out
        (worthwhile when single buckets receive very large segments).
        """
        import numpy as np

        from repro.backends import as_hash_array

        hashes = as_hash_array(hashes)
        if hashes.size == 0:
            return
        at_array = np.asarray(at, dtype=np.float64)
        if at_array.ndim == 0:
            sketch = self._sketch_for(self._bucket_of(float(at_array)))
            if sketch is not None:
                sketch.add_hashes(hashes, workers)
            return
        at_array = at_array.reshape(-1)
        if len(at_array) != len(hashes):
            raise ValueError(
                f"timestamp/hash length mismatch: {len(at_array)} vs {len(hashes)}"
            )
        buckets = np.floor_divide(at_array, self._bucket_width).astype(np.int64)
        unique_buckets, first_positions = np.unique(buckets, return_index=True)
        appearance = np.argsort(first_positions, kind="stable")
        # One stable sort + segment slicing (as in the aggregator scatter)
        # instead of a full-array mask per bucket.
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        starts = np.searchsorted(sorted_buckets, unique_buckets, side="left")
        ends = np.searchsorted(sorted_buckets, unique_buckets, side="right")
        for position in appearance.tolist():
            bucket = int(unique_buckets[position])
            sketch = self._sketch_for(bucket)
            if sketch is None:
                continue
            segment = order[starts[position] : ends[position]]
            sketch.add_hashes(hashes[segment], workers)

    # -- queries --------------------------------------------------------------------

    def estimate(self, now: float) -> float:
        """Distinct count of the buckets overlapping ``(now - window, now]``."""
        current = self._bucket_of(now)
        lowest = current - self._buckets + 1
        merged: ExaLogLog | None = None
        for bucket, sketch in self._sketches.items():
            if lowest <= bucket <= current:
                if merged is None:
                    merged = sketch.copy()
                else:
                    merged.merge_inplace(sketch)
        return merged.estimate() if merged is not None else 0.0

    def estimate_per_bucket(self, now: float) -> list[tuple[int, float]]:
        """(bucket index, estimate) for each live bucket in the window.

        All bucket sketches resolve in one simultaneous Newton solve
        (:func:`repro.estimation.batch.batch_estimate_sketches`),
        bit-identical to estimating each bucket on its own.
        """
        from repro.estimation.batch import batch_estimate_sketches

        current = self._bucket_of(now)
        lowest = current - self._buckets + 1
        live = [
            (bucket, sketch)
            for bucket, sketch in self._sketches.items()
            if lowest <= bucket <= current
        ]
        values = batch_estimate_sketches([sketch for _, sketch in live])
        return [(bucket, value) for (bucket, _), value in zip(live, values)]

    def __repr__(self) -> str:
        return (
            f"SlidingWindowDistinctCounter(window={self.window}, "
            f"buckets={self._buckets}, active={self.active_buckets})"
        )
