"""Scatter-gather reads over a sharded cluster: one ``SketchSource``.

A cluster is N independent stores, but a query should not care: this
module folds them back into the one read surface everything else speaks
(:class:`repro.query.source.SketchSource`), so the planner, executor and
dialect run over a cluster exactly as over a single store.

Each group key lives on exactly one shard (``shard_of(key, N)``), so
every read is an exact composition of the shards' reads, written once
in :class:`~repro.query.source.PartitionedSource`: ``groups()`` and
``estimates()`` join the shards', a point read routes to one shard, and
``top(count)`` merges the shards' own top ``count`` (a local estimate
already *is* the global one, and every ``top`` ties by ascending key).

A rebalance that a dead writer left behind breaks the first rule: until
the next writer open completes it, a copied group sits on its old and
its new owner, a dropped one only on its new owner, and the shard count
in ``cluster.json`` is the old one. :meth:`ClusterSource.open` sees such
a journal (its epoch is newer than ``cluster.json``'s), opens every
shard directory up to the larger of the two shard counts, and reads
from one source: an aggregator that merges all of them by Algorithm 5
(rebuilt by :meth:`ClusterSource.refresh`). The merge is idempotent, so
a group on two shards counts once and the answers are those the
completed rebalance gives.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable, Sequence

from repro.query.source import PartitionedSource


def skew_of(sources: Iterable) -> float:
    """Largest source's group count over the mean (1.0 = balanced)."""
    counts = [len(source) for source in sources]
    total = sum(counts)
    if not total:
        return 1.0
    return max(counts) * len(counts) / total


class ClusterSource(PartitionedSource):
    """A :class:`~repro.query.source.SketchSource` over per-shard sources.

    ``sources`` is indexed by shard id: ``sources[i]`` must hold exactly
    the groups with ``shard_of(key, len(sources)) == i``. Any protocol
    source works as a member — live :class:`~repro.store.SketchStore`
    writers, lock-free :class:`~repro.store.SnapshotReader` views, or
    :class:`~repro.store.FollowerStore` replicas — and members may be
    mixed (e.g. reading one shard from its replica).
    """

    def __init__(self, sources: Sequence[Any]) -> None:
        if not sources:
            raise ValueError("a cluster needs at least one shard source")
        sources = tuple(sources)
        config = sources[0].config
        for index, source in enumerate(sources[1:], start=1):
            if tuple(source.config) != tuple(config):
                raise ValueError(
                    f"shard {index} configuration {tuple(source.config)} differs "
                    f"from shard 0 {tuple(config)}; a cluster's sketches must "
                    "be mergeable (identical parameters)"
                )
        # Reads go to ``_sources``; refresh, close and skew to the opened
        # members. They differ only while a rebalance is pending (open()).
        self._sources = self._members = sources

    def _merge(self) -> None:
        """Read from one aggregator merging every member (Algorithm 5)."""
        self._sources = self._members  # the parts to_aggregator() merges
        self._sources = (self.to_aggregator(),)

    @classmethod
    def open(cls, root, reader: bool = False) -> "ClusterSource":
        """Open every shard of a cluster directory for querying.

        ``reader=False`` opens read-only :class:`~repro.store.SketchStore`
        views (durable prefix at open time); ``reader=True`` opens
        lock-free :class:`~repro.store.SnapshotReader` tails instead —
        safe against live shard writers and refreshable via
        :meth:`refresh`. Close with :meth:`close`.

        When a rebalance journal is newer than ``cluster.json``, every
        existing shard directory up to the larger shard count opens, and
        reads answer from their merge (see the module docstring). An open
        that raises closes every member it opened.
        """
        from repro.cluster.meta import read_journal, read_meta, shard_path
        from repro.store import SketchStore, SnapshotReader

        root = pathlib.Path(root)
        meta = read_meta(root)
        if meta is None:
            raise FileNotFoundError(
                f"{root}: not a cluster directory (no cluster.json; "
                "initialise with ShardedStore.open(root, shards=N))"
            )
        journal = read_journal(root)
        pending = journal is not None and journal[0] > meta.epoch
        count = max(journal[1], journal[2]) if pending else meta.shards
        sources = []
        try:
            for index in range(count):
                path = shard_path(root, index)
                if pending and not path.exists():
                    continue
                if reader:
                    sources.append(SnapshotReader.open(path))
                else:
                    sources.append(SketchStore.open(path, read_only=True))
            view = cls(sources)
            if pending:
                view._merge()
        except BaseException:
            for source in sources:
                source.close()
            raise
        return view

    # -- topology --------------------------------------------------------------

    @property
    def shard_sources(self) -> tuple:
        """The per-shard sources reads go to, indexed by shard id.

        While a rebalance is pending, the one merged aggregator.
        """
        return self._sources

    @property
    def members(self) -> tuple:
        """The sources :meth:`open` opened, one per existing shard directory."""
        return self._members

    @property
    def shards(self) -> int:
        """The number of shard sources opened (:attr:`members`)."""
        return len(self._members)

    @property
    def config(self) -> tuple:
        return self._sources[0].config

    def parts(self) -> tuple:
        """The reads' parts: :attr:`shard_sources`."""
        return self._sources

    def skew(self) -> float:
        """Largest member's group count over the mean (1.0 = balanced)."""
        return skew_of(self._members)

    # -- lifecycle -------------------------------------------------------------

    def refresh(self) -> list:
        """Refresh every member that supports it (reader-backed clusters)."""
        results = []
        for member in self._members:
            refresh = getattr(member, "refresh", None)
            if callable(refresh):
                results.append(refresh())
        if self._sources is not self._members:
            self._merge()
        return results

    def close(self) -> None:
        for member in self._members:
            close = getattr(member, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "ClusterSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        kinds = {type(member).__name__ for member in self._members}
        return (
            f"ClusterSource(shards={len(self._members)}, "
            f"members={sorted(kinds)})"
        )
