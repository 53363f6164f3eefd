"""Sliding-window distinct counting.

The paper's application list (Sec. 1) includes sliding-HyperLogLog-based
port-scan detection; this module provides the standard bucketed-window
construction on ExaLogLog: time is divided into fixed-width buckets, each
bucket owns a small sketch, and a query merges the sketches of the buckets
overlapping the window. Expired buckets are dropped, so memory is bounded
by ``buckets`` sketches.

The window is *bucket-aligned*: a query covers between ``window`` and
``window + bucket_width`` of history (the usual trade-off of the bucketed
approach; exact sliding windows need timestamped registers and lose
ExaLogLog's fixed-size state).

The buckets are the groups of one dense
:class:`~repro.aggregate.DistinctCountAggregator`, keyed
``<store_prefix><bucket index>``, and the counter answers the
:class:`repro.query.SketchSource` reads from it, like a store. Live
buckets vanish when they age out — unless a
:class:`repro.store.SketchStore` is attached (``store=``), in which
case every evicted bucket's sketch
retires durably into the store under the same key before being dropped,
so the full history remains queryable (and crash-recoverable) after the
window moved on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.aggregate import DistinctCountAggregator, scatter
from repro.core.exaloglog import ExaLogLog
from repro.hashing import hash64
from repro.query.source import DelegatingSource

if TYPE_CHECKING:
    from repro.store import SketchStore

#: Bucket indices are int64: a time whose index falls outside is refused.
_INDEX_BOUND = 2.0**63


def bucket_index(at: float, width: float, name: str = "at") -> int:
    """The index of the ``width``-wide bucket holding time ``at``.

    Raises ``ValueError`` naming ``name`` and the value when ``at`` is
    not finite, or when its index is outside int64: a finite time over a
    small width can overflow to an infinite index.
    """
    try:
        at = float(at)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name}={at!r} puts its bucket index outside int64") from None
    if not math.isfinite(at):
        raise ValueError(f"{name} must be finite, got {at!r}")
    index = at // width
    if not -_INDEX_BOUND <= index < _INDEX_BOUND:
        raise ValueError(f"{name}={at!r} puts its bucket index outside int64")
    return int(index)


class SlidingWindowDistinctCounter(DelegatingSource):
    """Approximate distinct count over the trailing ``window`` time units.

    >>> counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=8)
    >>> counter.add("alice", at=0.0)
    >>> counter.add("bob", at=30.0)
    >>> round(counter.estimate(now=30.0))
    2
    >>> list(counter.groups())
    [b'bucket:0', b'bucket:3']

    Every :class:`~repro.query.source.DelegatingSource` read but
    :meth:`estimate` (which takes a time) is the bucket aggregator's, so
    ``top`` ties by ascending key, byte by byte (``b"bucket:10" <
    b"bucket:9"``). Buckets are always dense, so ``config``'s sparse
    flag is ``False``; ``__init__`` checks the rest against an attached
    store's (dense and sparse sketches of one parameterisation merge).
    """

    __slots__ = (
        "_aggregator",
        "_bucket_width",
        "_buckets",
        "_newest",
        "_newest_key",
        "_seed",
        "_store",
        "_store_prefix",
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
        if not 0.0 < window < math.inf:
            raise ValueError(f"window must be finite and > 0, got {window!r}")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self._bucket_width = window / buckets
        self._buckets = buckets
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
        self._aggregator = DistinctCountAggregator(t, d, p, sparse=False, seed=seed)
        #: The newest bucket seen and its key. Every live bucket lies in
        #: the ``buckets`` indices ending at it, so no read scans more.
        self._newest: int | None = None
        self._newest_key = b""

    @property
    def window(self) -> float:
        """The configured window length."""
        return self._bucket_width * self._buckets

    @property
    def bucket_width(self) -> float:
        return self._bucket_width

    @property
    def prefix(self) -> str:
        """The key prefix of bucket groups, live and retired (``store_prefix``)."""
        return self._store_prefix

    @property
    def aggregator(self) -> DistinctCountAggregator:
        """The live buckets, one group per bucket (read it, don't write it)."""
        return self._aggregator

    @property
    def active_buckets(self) -> int:
        """Number of bucket sketches currently held."""
        return len(self._aggregator)

    @property
    def memory_bytes(self) -> int:
        """Modelled footprint of all bucket sketches."""
        return self._aggregator.total_memory_bytes()

    def _key(self, bucket: int) -> bytes:
        return f"{self._store_prefix}{bucket}".encode()

    def _bucket_of(self, at: float, name: str = "at") -> int:
        return bucket_index(at, self._bucket_width, name)

    def _admit(self, bucket: int) -> bytes | None:
        """``bucket``'s group key, evicting what a new newest bucket pushes out.

        ``None`` for a bucket older than the window ending at the newest
        bucket seen: its items are skipped, never folded into a bucket
        that is evicted at once.
        """
        newest = self._newest
        if bucket == newest:
            return self._newest_key
        key = self._key(bucket)
        if newest is None or bucket > newest:
            if newest is not None:
                self._evict(newest, bucket)
            self._newest, self._newest_key = bucket, key
        elif bucket <= newest - self._buckets:
            return None
        return key

    def _evict(self, newest: int, bucket: int) -> None:
        """Retire and drop, oldest first, the buckets ``bucket`` pushes out."""
        cutoff = min(bucket - self._buckets, newest)
        for _, key, sketch in self._live(newest - self._buckets + 1, cutoff):
            if self._store is not None and not sketch.is_empty:
                self._store.merge_sketch(key, sketch)
            self._aggregator.drop_group(key)

    def _live(self, lowest: int, highest: int) -> "list[tuple[int, bytes, Any]]":
        """``(bucket, key, sketch)`` of each live bucket in ``[lowest, highest]``."""
        live = []
        for bucket in range(lowest, highest + 1):
            key = self._key(bucket)
            sketch = self._aggregator.group_sketch(key)
            if sketch is not None:
                live.append((bucket, key, sketch))
        return live

    def _covering(self, now: float) -> "list[tuple[int, bytes, Any]]":
        current = self._bucket_of(now, "now")
        return self._live(current - self._buckets + 1, current)

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
        if self._newest is None:
            return 0
        flushed = 0
        for _, key, sketch in self._live(self._newest - self._buckets + 1, self._newest):
            if not sketch.is_empty:
                self._store.merge_sketch(key, sketch)
                flushed += 1
        return flushed

    # -- updates -----------------------------------------------------------------

    def add(self, item: Any, at: float) -> None:
        """Record ``item`` observed at time ``at`` (monotone or not)."""
        self.add_hash(hash64(item, self._seed), at)

    def add_hash(self, hash_value: int, at: float) -> None:
        key = self._admit(self._bucket_of(at))
        if key is not None:
            self._aggregator.add_hash(key, hash_value)

    def add_batch(self, items: Any, at) -> None:
        """Record a batch of items; ``at`` is one time or one per item."""
        from repro.hashing.batch import hash_items

        self.add_hashes(hash_items(items, self._seed), at)

    def add_hashes(self, hashes, at) -> None:
        """Bulk insert hashes observed at time(s) ``at``.

        ``at`` may be a scalar (the whole batch in one bucket, one
        :meth:`~repro.aggregate.DistinctCountAggregator.fold`) or an array
        of per-item timestamps. The sequential loop skips an item whose
        bucket is at or below the newest bucket seen before it (the
        counter's own newest included) minus ``buckets``; those items
        are dropped first. The rest are admitted bucket by bucket in
        first-appearance order, so creations and evictions occur exactly
        as in the loop, and the final state — live buckets and buckets
        retired into a store — is identical. The buckets' segments fold
        together through
        :meth:`~repro.aggregate.DistinctCountAggregator.fold_segments`,
        flushed early only when a new bucket would evict one of them.
        Timestamps must be finite, with bucket indices inside int64: a
        batch holding any other raises ``ValueError`` naming its first
        such index, and ingests nothing.
        """
        import numpy as np

        from repro.backends import as_hash_array

        hashes = as_hash_array(hashes)
        if hashes.size == 0:
            return
        at_array = np.asarray(at, dtype=np.float64)
        if at_array.ndim == 0:
            key = self._admit(self._bucket_of(float(at_array)))
            if key is not None:
                self._aggregator.fold(key, hashes)
            return
        at_array = at_array.reshape(-1)
        if len(at_array) != len(hashes):
            raise ValueError(
                f"timestamp/hash length mismatch: {len(at_array)} vs {len(hashes)}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            indices = np.floor_divide(at_array, self._bucket_width)
        bad = np.flatnonzero(~((indices >= -_INDEX_BOUND) & (indices < _INDEX_BOUND)))
        if len(bad):
            name, value = f"at[{bad[0]}]", float(at_array[bad[0]])
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            raise ValueError(f"{name}={value!r} puts its bucket index outside int64")
        buckets = indices.astype(np.int64)
        newest = np.maximum.accumulate(buckets)
        if self._newest is not None:
            np.maximum(newest, self._newest, out=newest)
        # newest >= buckets, so the uint64 difference is exact.
        admitted = newest.view(np.uint64) - buckets.view(np.uint64) < self._buckets
        if not admitted.all():
            buckets, hashes = buckets[admitted], hashes[admitted]
            if not len(buckets):
                return
        first, runs = scatter(buckets, hashes)
        segments: list = []
        lowest = 0  # the oldest bucket with a gathered segment
        for bucket, run in zip(buckets[first].tolist(), runs):
            if segments and lowest <= bucket - self._buckets:
                # Admitting ``bucket`` evicts a gathered one: fold it first.
                self._aggregator.fold_segments(segments)
                segments = []
            key = self._admit(bucket)
            if key is not None:
                lowest = min(lowest, bucket) if segments else bucket
                segments.append((key, run))
        self._aggregator.fold_segments(segments)

    # -- queries --------------------------------------------------------------------

    def estimate(self, now: float) -> float:
        """Distinct count of the buckets overlapping ``(now - window, now]``."""
        merged = ExaLogLog(*self.config[:3])  # empty: Alg. 5's merge identity
        for _, _, sketch in self._covering(now):
            merged.merge_inplace(sketch)
        return merged.estimate()

    def estimate_per_bucket(self, now: float) -> list[tuple[int, float]]:
        """(bucket index, estimate) for each live bucket in the window, ascending.

        All bucket sketches resolve in one simultaneous Newton solve
        (:func:`repro.estimation.batch.batch_estimate_sketches`),
        bit-identical to estimating each bucket on its own.
        """
        from repro.estimation.batch import batch_estimate_sketches

        live = self._covering(now)
        values = batch_estimate_sketches([sketch for _, _, sketch in live])
        return [(bucket, value) for (bucket, _, _), value in zip(live, values)]

    def __repr__(self) -> str:
        return (
            f"SlidingWindowDistinctCounter(window={self.window}, "
            f"buckets={self._buckets}, active={self.active_buckets})"
        )
