"""``ShardedStore``: a multi-writer, hash-partitioned cluster of stores.

The paper's Algorithm 5 merge is *exact*, which is the whole reason a
hash-partitioned cluster can be bit-identical to a single store: route
every ``(group, batch)`` to ``shard_of(key, N)`` and each group's sketch
receives exactly the hash stream a single store would have fed it — on
one shard, behind that shard's own WAL, snapshot cadence, and optional
replica chain. Nothing about the sketches changes; only who holds them.

Layout of a cluster root::

    cluster/
      cluster.json        topology: shard count, epoch, configuration
      rebalance.json      present only while a rebalance is in flight
      shard-0000/         a full SketchStore directory (WAL + snapshots)
      shard-0001/
      ...
      replica-0000/       optional per-shard follower directories
      ...

**Rebalancing** exploits mergeability instead of re-ingesting: to go
from N to M shards, every group whose owner changes under ``shard_of(key,
M)`` is shipped as one serialized sketch (a ``RECORD_SKETCH`` WAL record
on the destination), then dropped from its source (``RECORD_DROP``).
The transition is *fenced*: a ``RECORD_CUTOVER`` begin record lands in
every pre-rebalance WAL before a byte moves and a commit record in every
post-rebalance WAL after the drops, so any log replayer (recovery, a
reader tail, a follower chain) can name the exact LSN interval in which
ownership moved. Atomically rewriting ``cluster.json`` is the commit
point; the ``rebalance.json`` journal (written first, cleared last)
makes a crash at *any* intermediate point recoverable — every step is
idempotent (sketch merges are register-max, drops are pops), so
:meth:`ShardedStore.open` simply replays the rebalance forward.
"""

from __future__ import annotations

import contextlib
import pathlib
import shutil
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator

from repro.aggregate import DistinctCountAggregator, segment
from repro.cluster.meta import (
    CUTOVER_BEGIN,
    CUTOVER_COMMIT,
    ClusterMeta,
    clear_journal,
    encode_cutover,
    read_journal,
    read_meta,
    replica_path,
    shard_path,
    write_journal,
    write_meta,
)
from repro.cluster.source import ClusterSource
from repro.hashing import to_bytes
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.parallel.shard import shard_of, shards_of
from repro.query.source import DelegatingSource
from repro.store.durable import make_dirs
from repro.store.sketchstore import SketchStore

_REBALANCES = _metrics.counter(
    "cluster.rebalances", "Committed shard-count changes."
)
_REBALANCE_MOVED = _metrics.counter(
    "cluster.rebalance_moved_groups",
    "Groups shipped between shards by rebalances.",
)
_REBALANCE_BYTES = _metrics.counter(
    "cluster.rebalance_bytes",
    "Serialized sketch bytes shipped between shards by rebalances.",
)
_SKEW = _metrics.gauge(
    "cluster.skew",
    "Largest shard's group count over the per-shard mean (1.0 = balanced).",
)


class SimulatedCrash(RuntimeError):
    """Raised by the fault-injection hook ``ShardedStore._crash_after``."""


@dataclass(frozen=True)
class RebalanceResult:
    """What one committed rebalance did."""

    from_shards: int
    to_shards: int
    epoch: int
    moved_groups: int
    """Groups whose owner changed (each shipped as one sketch)."""
    shipped_bytes: int
    """Serialized sketch bytes that crossed shard boundaries."""
    resumed: bool = False
    """True when crash recovery completed an interrupted rebalance."""


@dataclass(frozen=True)
class ShardStatus:
    """One shard's health snapshot (see :meth:`ShardedStore.status`)."""

    index: int
    directory: str
    groups: int
    generation: int
    wal_records: int
    wal_bytes: int
    durable_lsn: int


class ShardedStore(DelegatingSource):
    """N independent :class:`~repro.store.SketchStore` shards, one surface.

    >>> cluster = ShardedStore.open(tmp_path / "c", shards=4, p=8)
    >>> cluster.append("DE", ["alice", "bob"]).append("FR", ["carol"])
    >>> round(cluster.estimate("DE"))
    2
    >>> cluster.rebalance(6).to_shards
    6

    Implements the :class:`~repro.query.source.SketchSource` protocol, so
    the query planner/executor (and the CLI dialect) treat a cluster as
    just another source. Writes route by ``shard_of(key, N)`` (a batch
    by one :func:`~repro.parallel.shards_of` pass); reads
    scatter-gather through :attr:`source`, a
    :class:`~repro.cluster.ClusterSource` (see
    :class:`~repro.query.source.DelegatingSource`).

    ``shards`` is required when creating a new cluster and validated
    (like the sketch parameters) against ``cluster.json`` on an existing
    one. Opening a cluster whose previous process died mid-rebalance
    completes the rebalance before returning.
    """

    #: Test hook: name of the rebalance stage after which to raise
    #: :class:`SimulatedCrash` (fault-injection suites set this).
    _crash_after: "str | None" = None

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("use ShardedStore.open(root, shards=N, ...)")

    @classmethod
    def open(
        cls,
        root,
        shards: "int | None" = None,
        t: "int | None" = None,
        d: "int | None" = None,
        p: "int | None" = None,
        sparse: "bool | None" = None,
        seed: "int | None" = None,
        fsync: bool = False,
        auto_compact_bytes: "int | None" = None,
    ) -> "ShardedStore":
        """Open (or initialise) a cluster root directory.

        Creating needs ``shards``; the sketch parameters default like
        :meth:`SketchStore.open`. On an existing cluster the persisted
        topology and configuration win, and explicitly passed values are
        validated against them. An open that raises closes every shard
        it opened.
        """
        store = object.__new__(cls)
        store._root = pathlib.Path(root)
        store._fsync = fsync
        store._auto_compact_bytes = auto_compact_bytes
        store._shards: "list[SketchStore]" = []
        store._depth = 0  # open batch() scopes
        try:
            meta = read_meta(store._root)
            if meta is None:
                if shards is None:
                    raise ValueError(
                        f"{store._root}: uninitialised cluster — pass shards=N "
                        "to create one"
                    )
                if shards < 1:
                    raise ValueError(f"shards must be >= 1, got {shards}")
                make_dirs(store._root)
                for index in range(shards):
                    store._shards.append(
                        store._open_shard(index, t=t, d=d, p=p, sparse=sparse, seed=seed)
                    )
                meta = ClusterMeta(
                    shards=shards, epoch=0, config=store._shards[0].config
                )
                write_meta(store._root, meta)
                store._meta = meta
            else:
                if shards is not None and shards != meta.shards:
                    raise ValueError(
                        f"cluster at {store._root} has {meta.shards} shards, "
                        f"requested {shards} (use rebalance() to change the "
                        "fan-out)"
                    )
                mt, md, mp, msparse, mseed = meta.config
                requested = (t, d, p, sparse, seed)
                mismatched = [
                    (value, on_disk)
                    for value, on_disk in zip(requested, meta.config)
                    if value is not None and value != on_disk
                ]
                if mismatched:
                    raise ValueError(
                        f"cluster at {store._root} has configuration "
                        f"(t, d, p, sparse, seed)={meta.config}, requested {requested}"
                    )
                store._meta = meta
                for index in range(meta.shards):
                    store._shards.append(
                        store._open_shard(
                            index, t=mt, d=md, p=mp, sparse=msparse, seed=mseed
                        )
                    )
                journal = read_journal(store._root)
                if journal is not None:
                    store._recover_rebalance(journal)
        except BaseException:
            # Release every shard opened so far; keep the original error.
            for shard in store._shards:
                with contextlib.suppress(OSError):
                    shard.close()
            raise
        store._counters = store._record_counters()
        return store

    def _record_counters(self) -> list:
        return [
            _metrics.counter(
                "cluster.append_records",
                "WAL records routed to each shard.",
                labels={"shard": str(index)},
            )
            for index in range(len(self._shards))
        ]

    def _open_shard(self, index: int, **config) -> SketchStore:
        return SketchStore.open(
            shard_path(self._root, index),
            fsync=self._fsync,
            auto_compact_bytes=self._auto_compact_bytes,
            **config,
        )

    # -- topology --------------------------------------------------------------

    @property
    def root(self) -> pathlib.Path:
        return self._root

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def epoch(self) -> int:
        """Rebalance epoch (0 until the first committed rebalance)."""
        return self._meta.epoch

    @property
    def shard_stores(self) -> tuple:
        """The per-shard :class:`~repro.store.SketchStore` writers."""
        return tuple(self._shards)

    @property
    def shard_sources(self) -> tuple:
        """Protocol alias the query executor uses to see through a cluster."""
        return tuple(self._shards)

    def shard_of(self, group: Hashable) -> int:
        """The shard index owning ``group`` under the current fan-out."""
        return shard_of(to_bytes(group), len(self._shards))

    # -- ingest (routed) -------------------------------------------------------

    def append(self, group: Hashable, items: Any) -> "ShardedStore":
        """Durably record a batch of items under ``group``; returns ``self``."""
        from repro.hashing.batch import hash_items

        return self.append_hashes(group, hash_items(items, self._meta.config[4]))

    def append_hashes(self, group: Hashable, hashes) -> "ShardedStore":
        """Durably record pre-hashed values under ``group``; returns ``self``."""
        key = to_bytes(group)
        index = shard_of(key, len(self._shards))
        self._shards[index].append_hashes(key, hashes)
        if _metrics.enabled() and not self._depth:
            self._counters[index].inc()
        return self

    @contextlib.contextmanager
    def batch(self) -> "Iterator[ShardedStore]":
        """Group every write inside the scope into one commit per shard.

        Enters every shard's :meth:`SketchStore.batch`: on exit each shard
        that received writes commits them with one WAL write and, with
        ``fsync=True``, one fsync. A shard's run of hash writes is one
        record, so a crash leaves each shard all or none of its part of
        a batch of hash writes. Shards commit independently, so a
        cluster batch is not atomic across shards: a crash in the middle
        may leave one shard its part and another none. A scope left by
        an exception writes nothing, reads inside it see the state from
        before it, and :meth:`compact` or :meth:`rebalance` inside it
        raise.
        """
        counted = _metrics.enabled() and not self._depth
        if counted:
            before = [shard.durable_lsn for shard in self._shards]
        with contextlib.ExitStack() as scopes:
            for shard in self._shards:
                scopes.enter_context(shard.batch())
            self._depth += 1
            try:
                yield self
            finally:
                self._depth -= 1
        if counted:
            for counter, shard, lsn in zip(self._counters, self._shards, before):
                counter.inc(shard.durable_lsn - lsn)

    def add_batch(
        self, groups: "Iterable[Hashable]", items: Any
    ) -> "ShardedStore":
        """Scatter one ``(groups, items)`` batch across the shards.

        One vectorised hash + scatter pass
        (:func:`repro.aggregate.segment`, the shared front end), one
        :func:`~repro.parallel.shards_of` pass that routes every
        segment's key, then each segment goes to its owner shard's
        :meth:`~SketchStore.append_hashes`, all inside one
        :meth:`batch`. Each shard that received segments commits them as
        one ``RECORD_SEGMENTS`` record: one WAL write and, with
        ``fsync=True``, one fsync. A crash leaves each shard all or none
        of its part of the batch; the batch is not atomic across shards.
        """
        segments = segment(groups, items, self._meta.config[4])
        if not segments:
            return self
        owners = shards_of([key for key, _ in segments], len(self._shards))
        with self.batch():
            for (key, hashes), owner in zip(segments, owners.tolist()):
                self._shards[owner].append_hashes(key, hashes)
        return self

    def merge_sketch(self, group: Hashable, sketch) -> "ShardedStore":
        """Durably merge a whole sketch into ``group`` on its owner shard."""
        key = to_bytes(group)
        index = shard_of(key, len(self._shards))
        self._shards[index].merge_sketch(key, sketch)
        if _metrics.enabled() and not self._depth:
            self._counters[index].inc()
        return self

    # -- queries (scatter-gather through ClusterSource) ------------------------

    @property
    def source(self) -> ClusterSource:
        """A scatter-gather :class:`ClusterSource` over the live shards."""
        return ClusterSource(self._shards)

    def _view(self) -> ClusterSource:
        return self.source

    def to_aggregator(self) -> DistinctCountAggregator:
        """The whole cluster's state as one in-memory aggregator.

        The bit-identity surface: shards own disjoint groups, so merging
        them places private copies side by side and reconstructs exactly
        the aggregator a single store would hold after the same ingest.
        """
        merged = DistinctCountAggregator(*self._meta.config)
        for shard in self._shards:
            merged.merge_inplace(shard.aggregator)
        return merged

    # -- maintenance -----------------------------------------------------------

    def compact(self) -> "list[int]":
        """Compact every shard; returns the new per-shard generations."""
        return [shard.compact() for shard in self._shards]

    def status(self) -> "list[ShardStatus]":
        """Per-shard health snapshots (also refreshes the skew gauge)."""
        statuses = [
            ShardStatus(
                index=index,
                directory=str(shard.directory),
                groups=len(shard),
                generation=shard.generation,
                wal_records=shard.wal_records,
                wal_bytes=shard.wal_bytes,
                durable_lsn=shard.durable_lsn,
            )
            for index, shard in enumerate(self._shards)
        ]
        _SKEW.set(self.skew())
        return statuses

    def skew(self) -> float:
        """Largest shard's group count over the mean (1.0 = balanced)."""
        return self.source.skew()

    def sync_replicas(self) -> "list":
        """Ship every shard's WAL to its follower (``replica-NNNN``).

        Creates the follower directories on first use; repeat calls ship
        exactly what accumulated since the last one. A replica directory
        is itself a valid store directory, so a second-tier shipper can
        chain from it. Returns one :class:`~repro.store.ShipResult` per
        shard.
        """
        from repro.store import FollowerStore, WalShipper

        results = []
        for index, shard in enumerate(self._shards):
            with FollowerStore.open(
                replica_path(self._root, index), fsync=self._fsync
            ) as follower:
                results.append(WalShipper(shard.directory).sync(follower))
        return results

    # -- rebalancing -----------------------------------------------------------

    def rebalance(self, new_shards: int) -> RebalanceResult:
        """Change the fan-out to ``new_shards``, shipping whole sketches.

        No re-ingest: a moved group's sketch is serialized once, merged
        into its new owner's WAL, and dropped from the old one. Fenced
        (cutover records in every WAL) and journaled (crash at any point
        recovers forward on the next :meth:`open`). The store keeps
        serving routed reads/writes under the *new* fan-out when this
        returns.
        """
        if self._depth:
            raise ValueError("rebalance() inside an open batch() scope")
        if new_shards < 1:
            raise ValueError(f"shards must be >= 1, got {new_shards}")
        if new_shards == len(self._shards):
            raise ValueError(f"cluster already has {new_shards} shards")
        epoch = self._meta.epoch + 1
        write_journal(self._root, epoch, len(self._shards), new_shards)
        self._crash_point("journal")
        return self._run_rebalance(new_shards, epoch, resumed=False)

    def _recover_rebalance(self, journal: "tuple[int, int, int]") -> None:
        """Complete (or clean up) the rebalance a dead process left behind."""
        epoch, from_shards, to_shards = journal
        if self._meta.epoch >= epoch:
            # The meta flip (commit point) happened: only cleanup remains.
            self._cleanup_rebalance(to_shards)
            clear_journal(self._root)
            return
        if self._meta.shards != from_shards:
            from repro.storage.serialization import SerializationError

            raise SerializationError(
                f"{self._root}: rebalance journal expects {from_shards} "
                f"shards but the cluster has {self._meta.shards}"
            )
        self._run_rebalance(to_shards, epoch, resumed=True)

    def _run_rebalance(
        self, new_shards: int, epoch: int, resumed: bool
    ) -> RebalanceResult:
        old_shards = len(self._shards)
        with _trace.span(
            "cluster.rebalance", from_shards=old_shards, to_shards=new_shards
        ):
            # Fence: the begin record is the last thing every
            # pre-rebalance WAL carries before sketches start moving.
            begin = encode_cutover(epoch, old_shards, new_shards, CUTOVER_BEGIN)
            for shard in self._shards:
                shard.append_cutover(begin)
            self._crash_point("begin")
            # Grow: destination shards exist before anything ships.
            config = self._meta.config
            t, d, p, sparse, seed = config
            for index in range(old_shards, new_shards):
                self._shards.append(
                    self._open_shard(index, t=t, d=d, p=p, sparse=sparse, seed=seed)
                )
            self._crash_point("grow")
            # Copy: ship whole group sketches to their new owners. Merge
            # is register-max, so a resumed rebalance re-shipping a group
            # it already shipped changes nothing.
            moved = 0
            shipped = 0
            for index, shard in enumerate(self._shards[:old_shards]):
                for key in list(shard.groups()):
                    owner = shard_of(key, new_shards)
                    if owner == index:
                        continue
                    sketch = shard.group_sketch(key)
                    shipped += len(sketch.to_bytes())
                    self._shards[owner].merge_sketch(key, sketch)
                    moved += 1
            self._crash_point("copy")
            # Drop: sources forget what they no longer own (idempotent —
            # a re-dropped group is a no-op record).
            for index, shard in enumerate(self._shards[:old_shards]):
                for key in list(shard.groups()):
                    if shard_of(key, new_shards) != index:
                        shard.drop_group(key)
            self._crash_point("drop")
            # Fence: every post-rebalance WAL records the commit.
            commit = encode_cutover(epoch, old_shards, new_shards, CUTOVER_COMMIT)
            for shard in self._shards:
                shard.append_cutover(commit)
            self._crash_point("commit")
            # The commit point: flip the topology atomically.
            self._meta = ClusterMeta(
                shards=new_shards, epoch=epoch, config=self._meta.config
            )
            write_meta(self._root, self._meta)
            self._crash_point("meta")
            self._cleanup_rebalance(new_shards)
            clear_journal(self._root)
        self._counters = self._record_counters()
        if _metrics.enabled():
            _REBALANCES.inc()
            _REBALANCE_MOVED.inc(moved)
            _REBALANCE_BYTES.inc(shipped)
            _SKEW.set(self.skew())
        return RebalanceResult(
            from_shards=old_shards,
            to_shards=new_shards,
            epoch=epoch,
            moved_groups=moved,
            shipped_bytes=shipped,
            resumed=resumed,
        )

    def _cleanup_rebalance(self, new_shards: int) -> None:
        """Retire drained shard directories after a shrink's commit."""
        for shard in self._shards[new_shards:]:
            shard.close()
            shutil.rmtree(shard.directory, ignore_errors=True)
        del self._shards[new_shards:]
        # A crash between the meta flip and this cleanup reopens with only
        # the surviving shards in memory; drained directories may still sit
        # on disk (shard indices are contiguous, so scan forward).
        index = len(self._shards)
        while True:
            stray = shard_path(self._root, index)
            if not stray.exists():
                break
            shutil.rmtree(stray, ignore_errors=True)
            index += 1

    def _crash_point(self, stage: str) -> None:
        if self._crash_after == stage:
            raise SimulatedCrash(f"simulated crash after rebalance stage {stage!r}")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedStore(root={str(self._root)!r}, shards={len(self._shards)}, "
            f"epoch={self._meta.epoch}, groups={len(self)})"
        )
