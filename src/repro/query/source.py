"""The ``SketchSource`` protocol: one read surface over every layer.

Every place this library can answer "how many distinct X per group" —
the in-memory :class:`~repro.aggregate.DistinctCountAggregator`, the
durable :class:`~repro.store.SketchStore`, the lock-free
:class:`~repro.store.SnapshotReader`, the replicated
:class:`~repro.store.FollowerStore`, the external
:class:`~repro.store.SpilledGroupBy`, the sharded
:class:`~repro.cluster.ShardedStore` and :class:`~repro.cluster.ClusterSource`
— implements the same five-method surface, so the planner/executor of
:mod:`repro.query` treats them interchangeably:

* ``config`` — the ``(t, d, p, sparse, seed)`` tuple; equal configs mean
  mergeable, comparable sketches (Alg. 5 merges are exact).
* ``groups()`` — iterator of canonical ``bytes`` group keys.
* ``group_sketch(key)`` — one group's sketch, private to the caller
  (safe to merge in place), ``None`` for unseen groups. This is each
  layer's *selective* path: a single-partition read on a spill, a dict
  lookup in the materialised aggregator everywhere else (the reader
  included).
* ``estimates()`` / ``top(n)`` — whole-source estimates through the
  batched one-solve path of :mod:`repro.estimation.batch`.

The aggregator implements the surface itself. The store, reader,
follower and sharded store hold no sketches of their own: they inherit
it from :class:`DelegatingSource`, which forwards every read to one
inner view (their live aggregator, or the cluster's scatter-gather
source). :func:`live_sketches` is the one probe for a source's live
``key → sketch`` mapping, which scans read without copying.

:class:`~repro.windowed.SlidingWindowDistinctCounter` predates group
keys (its state is bucket-indexed), so :class:`WindowedSource` adapts it
into the protocol; :class:`BucketedSource` declares the bucket layout of
a store holding retired window buckets so ``Window`` plans can address
them. :func:`as_source` normalises any of the above.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Mapping, Protocol, runtime_checkable

from repro.hashing import to_bytes


@runtime_checkable
class SketchSource(Protocol):
    """Anything the query plane can read group sketches from."""

    @property
    def config(self) -> tuple:  # (t, d, p, sparse, seed)
        ...

    def groups(self) -> Iterator[bytes]:
        ...

    def group_sketch(self, key: Any):
        ...

    def estimates(self) -> "dict[bytes, float]":
        ...

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        ...


class DelegatingSource:
    """The read surface of a source that answers through one inner view.

    Subclasses inherit ``config``, ``len``, ``in``, ``groups``,
    ``estimate``, ``estimates``, ``top`` and ``group_sketch``, each
    forwarded to :meth:`_view` — by default the subclass's live
    ``aggregator``.
    """

    def _view(self):
        """The object every read is forwarded to."""
        return self.aggregator

    @property
    def config(self) -> tuple:
        """The ``(t, d, p, sparse, seed)`` configuration tuple."""
        return self._view().config

    def __len__(self) -> int:
        return len(self._view())

    def __contains__(self, group: Hashable) -> bool:
        return group in self._view()

    def groups(self) -> Iterator[bytes]:
        """The observed group keys (canonical byte form)."""
        return self._view().groups()

    def estimate(self, group: Hashable) -> float:
        """Distinct-count estimate for one group (0 for unseen groups)."""
        return self._view().estimate(group)

    def estimates(self) -> "dict[bytes, float]":
        """All group estimates in one batched solve."""
        return self._view().estimates()

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        """The ``count`` groups with the largest estimates."""
        return self._view().top(count)

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch (``None`` for unseen groups)."""
        return self._view().group_sketch(group)


def live_sketches(source) -> "Mapping[bytes, Any] | None":
    """A source's live ``key → sketch`` mapping without copies, or ``None``.

    Looks through :class:`BucketedSource` wrappers and ``aggregator``
    views to a ``sketches()`` mapping. A sharded source (anything with
    ``shard_sources``) yields the union of its members' mappings — shards
    own disjoint key sets, so the union is exactly the single-store
    mapping — or ``None`` when any member has none. The sketches are
    shared: callers copy before mutating.
    """
    while isinstance(source, BucketedSource):
        source = source.source
    members = getattr(source, "shard_sources", None)
    if members is not None:
        merged: "dict[bytes, Any]" = {}
        for member in members:
            live = live_sketches(member)
            if live is None:
                return None
            merged.update(live)
        return merged
    view = getattr(source, "aggregator", source)
    sketches = getattr(view, "sketches", None)
    return sketches() if callable(sketches) else None


class WindowedSource:
    """A :class:`~repro.windowed.SlidingWindowDistinctCounter` as a source.

    Live buckets become groups keyed ``<prefix><bucket index>`` — the
    exact keys the counter itself uses when retiring evicted buckets
    into an attached store, so a plan addressing bucket keys runs
    unchanged over the live window and over the store holding its
    history.

    >>> from repro.windowed import SlidingWindowDistinctCounter
    >>> counter = SlidingWindowDistinctCounter(window=60.0, buckets=6)
    >>> counter.add("alice", at=10.0)
    >>> source = WindowedSource(counter)
    >>> list(source.groups())
    [b'bucket:1']
    """

    def __init__(self, counter, prefix: str = "bucket:") -> None:
        self._counter = counter
        self._prefix = prefix

    @property
    def counter(self):
        return self._counter

    @property
    def config(self) -> tuple:
        return self._counter.config

    @property
    def bucket_width(self) -> float:
        return self._counter.bucket_width

    @property
    def prefix(self) -> str:
        return self._prefix

    def bucket_key(self, bucket: int) -> bytes:
        """The canonical group key of one bucket index."""
        return f"{self._prefix}{bucket}".encode()

    def groups(self) -> Iterator[bytes]:
        for bucket in self._counter._sketches:
            yield self.bucket_key(bucket)

    def group_sketch(self, key: Any):
        sketch = self._counter._sketches.get(self._parse_bucket(key))
        return sketch.copy() if sketch is not None else None

    def _parse_bucket(self, key: Any) -> "int | None":
        raw = to_bytes(key)
        prefix = self._prefix.encode()
        if not raw.startswith(prefix):
            return None
        try:
            return int(raw[len(prefix) :])
        except ValueError:
            return None

    def sketches(self) -> "dict[bytes, Any]":
        """Live bucket sketches keyed by bucket key (no copies)."""
        return {
            self.bucket_key(bucket): sketch
            for bucket, sketch in self._counter._sketches.items()
        }

    def estimates(self) -> "dict[bytes, float]":
        from repro.estimation.batch import batch_estimates_by_key

        return batch_estimates_by_key(self.sketches())

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        from repro.estimation.batch import batch_top

        return batch_top(self.sketches(), count)

    def __repr__(self) -> str:
        return f"WindowedSource({self._counter!r}, prefix={self._prefix!r})"


class BucketedSource:
    """A keyed source whose groups include time-bucketed keys.

    Wraps any :class:`SketchSource` (typically a store or reader holding
    buckets a :class:`~repro.windowed.SlidingWindowDistinctCounter`
    retired via ``store=``) and declares the bucket layout —
    ``bucket_width`` and key ``prefix`` — that ``Window`` plan nodes
    need to map a time range onto group keys. All protocol methods
    delegate to the wrapped source.
    """

    def __init__(self, source, bucket_width: float, prefix: str = "bucket:") -> None:
        if bucket_width <= 0.0:
            raise ValueError("bucket_width must be positive")
        self._source = as_source(source)
        self._bucket_width = bucket_width
        self._prefix = prefix

    @property
    def source(self):
        return self._source

    @property
    def config(self) -> tuple:
        return self._source.config

    @property
    def bucket_width(self) -> float:
        return self._bucket_width

    @property
    def prefix(self) -> str:
        return self._prefix

    def bucket_key(self, bucket: int) -> bytes:
        return f"{self._prefix}{bucket}".encode()

    def groups(self) -> Iterator[bytes]:
        return self._source.groups()

    def group_sketch(self, key: Any):
        return self._source.group_sketch(key)

    def estimates(self) -> "dict[bytes, float]":
        return self._source.estimates()

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        return self._source.top(count)

    def __repr__(self) -> str:
        return (
            f"BucketedSource({self._source!r}, "
            f"bucket_width={self._bucket_width}, prefix={self._prefix!r})"
        )


def as_source(obj) -> SketchSource:
    """Normalise ``obj`` into a :class:`SketchSource`.

    Objects already implementing the protocol (aggregator, store,
    reader, follower, spill, the adapters above) pass through; a
    :class:`~repro.windowed.SlidingWindowDistinctCounter` is wrapped in
    a :class:`WindowedSource`.
    """
    from repro.windowed import SlidingWindowDistinctCounter

    if isinstance(obj, SlidingWindowDistinctCounter):
        return WindowedSource(obj)
    if isinstance(obj, SketchSource):
        return obj
    raise TypeError(
        f"{type(obj).__name__} does not implement the SketchSource protocol "
        "(config, groups, group_sketch, estimates, top)"
    )
