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

The aggregator implements the surface itself. The store, reader and
follower hold no sketches of their own: they inherit it from
:class:`DelegatingSource`, which forwards every read to their live
aggregator. The hash-partitioned sources — the cluster's
:class:`~repro.cluster.ClusterSource` and
:class:`~repro.cluster.ShardedStore`, and the spill — inherit it from
:class:`PartitionedSource`, which composes every read from their parts
(shards, or spill partitions built one at a time). The
:class:`~repro.windowed.SlidingWindowDistinctCounter` forwards the five
reads to its bucket aggregator itself, so there are no adapters: a
``Window`` plan takes its bucket layout from the counter, or from its
own ``bucket_width``/``prefix`` over a store of retired buckets. A scan
walks a source's parts (:meth:`PartitionedSource.parts`, or the source
itself), and :func:`as_source` checks the protocol.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Protocol, runtime_checkable

from repro.hashing import to_bytes
from repro.parallel.shard import shard_of


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


def _ranked(rows) -> "list[tuple[bytes, float]]":
    """``(key, estimate)`` rows by descending estimate, ties by ascending key."""
    return sorted(rows, key=lambda row: (-row[1], row[0]))


class PartitionedSource:
    """The read surface of a hash-partitioned source, written once.

    A group key lives in exactly one part, ``shard_of(key, part count)``,
    and Algorithm 5 merges are exact, so every read is an exact
    composition of the parts' reads: a point read routes to the owning
    part; ``groups``, ``estimates`` and ``len`` join every part's; and
    ``top`` re-ranks each part's own ``top(count)`` by descending
    estimate, ties by ascending key (a part's estimate already is the
    global one, so the global top ``count`` is among the parts', up to
    ties at a part's cut, which :meth:`top` reads again).

    Subclasses give their parts through :meth:`parts`. A spill's parts
    are built only when a read reaches them, so a read that walks them
    holds one at a time; it also overrides ``_part`` and ``_part_count``,
    which would otherwise build them all.
    """

    def parts(self) -> Iterable:
        """Every part, in partition order."""
        raise NotImplementedError

    def _part(self, index: int):
        """The part at ``index``."""
        return self.parts()[index]

    def _part_count(self) -> int:
        """The fan-out that ``shard_of`` routes by."""
        return len(self.parts())

    def _owner(self, group: Hashable):
        """``group``'s canonical key and the part that holds it."""
        key = to_bytes(group)
        return key, self._part(shard_of(key, self._part_count()))

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts())

    def __contains__(self, group: Hashable) -> bool:
        key, part = self._owner(group)
        return key in part

    def groups(self) -> Iterator[bytes]:
        """The observed group keys (canonical byte form), part by part."""
        for part in self.parts():
            yield from part.groups()

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch, read from its part alone
        (``None`` for unseen groups)."""
        key, part = self._owner(group)
        return part.group_sketch(key)

    def estimate(self, group: Hashable) -> float:
        """The owning part's estimate for one group (0 for unseen groups)."""
        key, part = self._owner(group)
        return part.estimate(key)

    def iter_estimates(self) -> Iterator[tuple[bytes, float]]:
        """``(key, estimate)`` pairs, part by part, one batched solve each."""
        for part in self.parts():
            yield from part.estimates().items()

    def estimates(self) -> "dict[bytes, float]":
        """All group estimates: every part's own ``estimates()``, joined.

        No row's estimate depends on the rows solved beside it, so the
        join equals one solve over every group.
        """
        estimates: "dict[bytes, float]" = {}
        for part in self.parts():
            estimates.update(part.estimates())
        return estimates

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        """The ``count`` groups with the largest estimates, ties by
        ascending key, holding at most ``2 * count + 1`` rows at a time.

        A part breaks ties at its cut by insertion order, so each part
        answers ``top(count + 1)``; a part whose last two rows tie at the
        final ``count``-th value may hide a smaller key, and only it is
        read again, routed by one of its keys, for its rows at that value.
        """
        best: "list[tuple[bytes, float]]" = []
        if count <= 0:
            return best
        cuts = []  # (the value a part tied at its cut, one of its keys)
        for part in self.parts():
            rows = part.top(count + 1)
            if len(rows) > count and rows[count - 1][1] == rows[count][1]:
                cuts.append((rows[count][1], rows[count][0]))
            best = _ranked(best + rows)[:count]
        for value, key in cuts:
            if len(best) == count and value == best[-1][1]:
                _, part = self._owner(key)
                tied = {k: v for k, v in part.estimates().items() if v == value}
                best = _ranked({**dict(best), **tied}.items())[:count]
        return best

    def to_aggregator(self):
        """Every part merged into one in-memory aggregator (Algorithm 5).

        Parts own disjoint groups, so this is exactly the aggregator one
        unpartitioned source would hold after the same ingest. It holds
        every group at once: meant for bit-identity checks and modest
        group counts.
        """
        from repro.aggregate import DistinctCountAggregator

        merged = DistinctCountAggregator(*self.config)
        for part in self.parts():
            merged.merge_inplace(getattr(part, "aggregator", part))
        return merged


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
