"""The ``SketchSource`` protocol: one read surface over every layer.

Every place this library can answer "how many distinct X per group" —
the in-memory :class:`~repro.aggregate.DistinctCountAggregator`, the
durable :class:`~repro.store.SketchStore`, the lock-free
:class:`~repro.store.SnapshotReader`, the replicated
:class:`~repro.store.FollowerStore`, the external
:class:`~repro.store.SpilledGroupBy`, the sharded
:class:`~repro.cluster.ShardedStore` and :class:`~repro.cluster.ClusterSource`,
and the :class:`~repro.windowed.SlidingWindowDistinctCounter`
— implements the same six-member surface, so the planner/executor of
:mod:`repro.query` treats them interchangeably:

* ``config`` — the ``(t, d, p, sparse, seed)`` tuple; equal configs mean
  mergeable, comparable sketches (Alg. 5 merges are exact).
* ``groups()`` — iterator of canonical ``bytes`` group keys.
* ``group_estimate(key)`` — one group's estimate, ``None`` for unseen
  groups: the row's kept estimate, or a solve of that one row. The
  point read of ``Estimate`` and ``TopK`` over an explicit key filter.
* ``group_sketch(key)`` — one group's sketch, private to the caller
  (safe to merge in place), ``None`` for unseen groups. The point read
  of every other plan: scans, windows and set operations.
* ``estimates()`` / ``top(n)`` — whole-source estimates through the
  batched one-solve path of :mod:`repro.estimation.batch`; ``top`` by
  descending estimate, ties by ascending key (its ``rank``).

Both point reads are a single-partition read on a spill and a row of
the materialised aggregator everywhere else (the reader included).

The aggregator implements the surface itself. The store, reader,
follower and sliding-window counter hold no sketches of their own:
they inherit it from :class:`DelegatingSource`, which forwards every
read to their live aggregator. The hash-partitioned sources — the
cluster's :class:`~repro.cluster.ClusterSource` and
:class:`~repro.cluster.ShardedStore`, and the spill — inherit it from
:class:`PartitionedSource`, which composes every read from their parts
(shards, or spill partitions built one at a time). There are no
adapters: a ``Window`` plan takes its bucket layout from the counter,
or from its own ``bucket_width``/``prefix`` over a store of retired
buckets. A scan walks a source's parts (:meth:`PartitionedSource.parts`,
or the source itself), and :func:`as_source` checks the protocol.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Protocol, runtime_checkable

from repro.estimation.batch import rank
from repro.hashing import to_bytes
from repro.parallel.shard import shard_of


@runtime_checkable
class SketchSource(Protocol):
    """Anything the query plane can read group sketches from.

    ``top(count)`` must rank by descending estimate, ties by ascending
    key: ``TopK`` over a whole source returns it as it is.
    """

    @property
    def config(self) -> tuple:  # (t, d, p, sparse, seed)
        ...

    def groups(self) -> Iterator[bytes]:
        ...

    def group_estimate(self, key: Any) -> "float | None":
        ...

    def group_sketch(self, key: Any):
        ...

    def estimates(self) -> "dict[bytes, float]":
        ...

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        ...


class DelegatingSource:
    """The read surface of a source that answers through its ``aggregator``.

    Subclasses inherit ``config``, ``len``, ``in``, ``groups``,
    ``estimate``, ``estimates``, ``top``, ``group_estimate`` and
    ``group_sketch``, each forwarded to ``self.aggregator`` (``estimate``
    through ``group_estimate``).
    """

    __slots__ = ()

    @property
    def config(self) -> tuple:
        """The ``(t, d, p, sparse, seed)`` configuration tuple."""
        return self.aggregator.config

    def __len__(self) -> int:
        return len(self.aggregator)

    def __contains__(self, group: Hashable) -> bool:
        return group in self.aggregator

    def groups(self) -> Iterator[bytes]:
        """The observed group keys (canonical byte form)."""
        return self.aggregator.groups()

    def estimate(self, group: Hashable) -> float:
        """Distinct-count estimate for one group (0 for unseen groups)."""
        value = self.group_estimate(group)
        return 0.0 if value is None else value

    def estimates(self) -> "dict[bytes, float]":
        """All group estimates in one batched solve."""
        return self.aggregator.estimates()

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        """The ``count`` groups with the largest estimates, ties by ascending key."""
        return self.aggregator.top(count)

    def group_estimate(self, group: Hashable) -> "float | None":
        """One group's kept estimate (``None`` for unseen groups)."""
        return self.aggregator.group_estimate(group)

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch (``None`` for unseen groups)."""
        return self.aggregator.group_sketch(group)


class PartitionedSource:
    """The read surface of a hash-partitioned source, written once.

    A group key lives in exactly one part, ``shard_of(key, part count)``,
    and Algorithm 5 merges are exact, so every read is an exact
    composition of the parts' reads: a point read routes to the owning
    part; ``groups``, ``estimates`` and ``len`` join every part's; and
    ``top`` merges the parts' own ``top(count)`` answers.

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

    def group_estimate(self, group: Hashable) -> "float | None":
        """One group's estimate, read from its part alone (``None`` for
        unseen groups)."""
        key, part = self._owner(group)
        return part.group_estimate(key)

    def estimate(self, group: Hashable) -> float:
        """The owning part's estimate for one group (0 for unseen groups)."""
        value = self.group_estimate(group)
        return 0.0 if value is None else value

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
        ascending key, holding at most ``2 * count`` rows at a time.

        A group's estimate in its part is the global one and every part
        ranks by the same rule, so a part's own ``top(count)`` holds
        every group of that part in the global top ``count``: each part
        is read once, and its answer merges into the best so far.
        """
        best: "list[tuple[bytes, float]]" = []
        if count <= 0:
            return best
        for part in self.parts():
            best = rank(best + part.top(count), count)
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


#: The :class:`SketchSource` protocol's members.
_MEMBERS = ("config", "groups", "group_estimate", "group_sketch", "estimates", "top")


def as_source(obj) -> SketchSource:
    """``obj`` itself, once checked against the :class:`SketchSource` protocol.

    Every read surface (aggregator, store, reader, follower, spill,
    cluster, windowed counter) implements it directly. The check looks
    up each member by name: ``isinstance`` against the runtime-checkable
    protocol gathers the member list again on every call, which costs
    more than the point read a query makes.
    """
    missing = [name for name in _MEMBERS if not hasattr(obj, name)]
    if not missing:
        return obj
    raise TypeError(
        f"{type(obj).__name__} does not implement the SketchSource protocol "
        f"({', '.join(_MEMBERS)}): it lacks {', '.join(missing)}"
    )
