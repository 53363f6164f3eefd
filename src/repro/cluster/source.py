"""Scatter-gather reads over a sharded cluster: one ``SketchSource``.

A cluster is N independent stores, but a query should not care: this
module folds them back into the one read surface everything else speaks
(:class:`repro.query.source.SketchSource`), so the planner, executor and
dialect run over a cluster exactly as over a single store.

The routing invariant makes every operation exact, not approximate:

* each group key lives on exactly one shard (``shard_of(key, N)``), so
  ``groups()`` is a plain concatenation and ``group_sketch`` a single
  routed point-read;
* ``estimates()`` gathers every shard's sketches and runs **one**
  batched solve over the concatenated register stacks — bit-identical to
  per-shard (and per-sketch) estimation, because batch composition never
  changes a row's result;
* ``top(count)`` asks each shard for its local top ``count`` (each local
  estimate already *is* the global estimate — groups don't span shards)
  and exactly re-ranks the ≤ ``N * count`` survivors, ties broken by
  ascending key like the executor's ``TopK``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Hashable, Iterator, Sequence

from repro.hashing import to_bytes
from repro.parallel.shard import shard_of
from repro.query.source import live_sketches


class ClusterSource:
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
        self._sources = sources

    @classmethod
    def open(cls, root, reader: bool = False) -> "ClusterSource":
        """Open every shard of a cluster directory for querying.

        ``reader=False`` opens read-only :class:`~repro.store.SketchStore`
        views (durable prefix at open time); ``reader=True`` opens
        lock-free :class:`~repro.store.SnapshotReader` tails instead —
        safe against live shard writers and refreshable via
        :meth:`refresh`. Close with :meth:`close`.
        """
        from repro.cluster.meta import read_meta, shard_path
        from repro.store import SketchStore, SnapshotReader

        root = pathlib.Path(root)
        meta = read_meta(root)
        if meta is None:
            raise FileNotFoundError(
                f"{root}: not a cluster directory (no cluster.json; "
                "initialise with ShardedStore.open(root, shards=N))"
            )
        sources = []
        try:
            for index in range(meta.shards):
                path = shard_path(root, index)
                if reader:
                    sources.append(SnapshotReader.open(path))
                else:
                    sources.append(SketchStore.open(path, read_only=True))
        except BaseException:
            for source in sources:
                source.close()
            raise
        return cls(sources)

    # -- topology --------------------------------------------------------------

    @property
    def shard_sources(self) -> tuple:
        """The per-shard sources, indexed by shard id."""
        return self._sources

    @property
    def shards(self) -> int:
        return len(self._sources)

    @property
    def config(self) -> tuple:
        return self._sources[0].config

    def shard_of(self, group: Hashable) -> int:
        """The shard id owning ``group`` under this cluster's fan-out."""
        return shard_of(to_bytes(group), len(self._sources))

    def source_for(self, group: Hashable):
        """The shard source owning ``group``."""
        return self._sources[self.shard_of(group)]

    # -- SketchSource protocol -------------------------------------------------

    def groups(self) -> Iterator[bytes]:
        for source in self._sources:
            yield from source.groups()

    def group_sketch(self, group: Hashable):
        """One routed point-read (the owning shard's cheapest path)."""
        return self.source_for(group).group_sketch(group)

    def estimate(self, group: Hashable) -> float:
        from repro.estimation.batch import batch_estimate_sketches

        sketch = self.group_sketch(group)
        if sketch is None:
            return 0.0
        return batch_estimate_sketches([sketch])[0]

    def estimates(self) -> "dict[bytes, float]":
        """All shards' estimates via one batched solve (scatter-gather).

        The solve runs over the shards' live sketches, gathered without
        copies; a cluster with a protocol-only member fetches every
        group through ``group_sketch`` instead.
        """
        from repro.estimation.batch import batch_estimates_by_key

        sketches = live_sketches(self)
        if sketches is None:
            sketches = {}
            for key in self.groups():
                sketch = self.group_sketch(key)
                if sketch is not None:
                    sketches[key] = sketch
        return batch_estimates_by_key(sketches)

    def top(self, count: int) -> "list[tuple[bytes, float]]":
        """Global top ``count`` from per-shard partial top-``count`` lists.

        Exact: groups never span shards, so a shard's local estimate is
        the global one, and the global top ``count`` is a subset of the
        union of the locals. Survivors re-rank by descending estimate,
        ties by ascending key (the executor's ``TopK`` order).
        """
        if count <= 0:
            return []
        survivors: "list[tuple[bytes, float]]" = []
        for source in self._sources:
            survivors.extend(source.top(count))
        survivors.sort(key=lambda kv: (-kv[1], kv[0]))
        return survivors[:count]

    def __len__(self) -> int:
        return sum(len(source) for source in self._sources)

    def skew(self) -> float:
        """Largest shard's group count over the mean (1.0 = balanced)."""
        counts = [len(source) for source in self._sources]
        total = sum(counts)
        if not total:
            return 1.0
        return max(counts) * len(counts) / total

    def __contains__(self, group: Hashable) -> bool:
        return group in self.source_for(group)

    # -- lifecycle -------------------------------------------------------------

    def refresh(self) -> list:
        """Refresh every member that supports it (reader-backed clusters)."""
        results = []
        for source in self._sources:
            refresh = getattr(source, "refresh", None)
            if callable(refresh):
                results.append(refresh())
        return results

    def close(self) -> None:
        for source in self._sources:
            close = getattr(source, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "ClusterSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        kinds = {type(source).__name__ for source in self._sources}
        return (
            f"ClusterSource(shards={len(self._sources)}, "
            f"members={sorted(kinds)})"
        )
