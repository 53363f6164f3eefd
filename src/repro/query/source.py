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
source). The :class:`~repro.windowed.SlidingWindowDistinctCounter`
forwards the five reads to its bucket aggregator itself, so there are
no adapters: a ``Window`` plan takes its bucket layout from the counter,
or from its own ``bucket_width``/``prefix`` over a store of retired
buckets. :func:`live_sketches` is the one probe for a source's live
``key → sketch`` mapping, which scans read without copying, and
:func:`as_source` checks the protocol.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Hashable, Iterator, Mapping, Protocol, runtime_checkable


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


class _ShardUnion(Mapping):
    """The union of shards' disjoint ``key → sketch`` mappings, copying none.

    Keys iterate shard by shard; a lookup asks each shard whether it
    holds the key before it reads the value.
    """

    __slots__ = ("_maps",)

    def __init__(self, maps: "list[Mapping[bytes, Any]]") -> None:
        self._maps = maps

    def __getitem__(self, key: bytes):
        for live in self._maps:
            if key in live:
                return live[key]
        raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        return any(key in live for live in self._maps)

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(self._maps)

    def __len__(self) -> int:
        return sum(len(live) for live in self._maps)


def live_sketches(source) -> "Mapping[bytes, Any] | None":
    """A source's live ``key → sketch`` mapping, or ``None``.

    Looks through ``aggregator`` views to a ``sketches()`` mapping,
    whose values are built only when read, so callers pick keys before
    they read values. A sharded source (anything with ``shard_sources``)
    yields the union of its members' mappings, copying none — shards
    own disjoint key sets, so the union is exactly the single-store
    mapping — or ``None`` when any member has none.
    """
    members = getattr(source, "shard_sources", None)
    if members is not None:
        maps = [live_sketches(member) for member in members]
        if any(live is None for live in maps):
            return None
        return _ShardUnion(maps)
    view = getattr(source, "aggregator", source)
    sketches = getattr(view, "sketches", None)
    return sketches() if callable(sketches) else None


def as_source(obj) -> SketchSource:
    """``obj`` itself, once checked against the :class:`SketchSource` protocol.

    Every read surface (aggregator, store, reader, follower, spill,
    cluster, windowed counter) implements it directly.
    """
    if isinstance(obj, SketchSource):
        return obj
    raise TypeError(
        f"{type(obj).__name__} does not implement the SketchSource protocol "
        "(config, groups, group_sketch, estimates, top)"
    )
