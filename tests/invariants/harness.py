"""Randomized cross-layer invariant harness: one generator, every ingest path.

The library's core promise is that all ingest and query paths are
*bit-identical*: scalar ``add_hash`` loops, vectorised ``add_hashes``,
segmented batch folds, ``workers=`` thread fan-outs, sliding-window
buckets, WAL-replayed stores, WAL-shipped follower replicas, sharded
clusters, and scalar vs simultaneous batched estimation all produce
exactly the same register bytes and exactly the same floats. Rather
than one bespoke fixture per path, this module generates one seeded
scenario — parameters, per-group hash streams, a merge/compaction/window
schedule — and hands it to *every* layer, so a new path joins the
identity matrix through one more ``build_*`` function instead of a new
test file.

Scenario generation is deterministic per seed (``numpy.random.PCG64``),
so a CI failure reproduces locally with just the seed from the test id.
Scale the number of seeds with ``INVARIANT_ROUNDS`` (default keeps the
quick-mode budget of the CI matrix).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.aggregate import DistinctCountAggregator
from repro.backends import BULK_CHUNK

#: Configurations covering the structural regimes: sparse/dense start,
#: the ML-optimal ELL(2, 20), small-register ELL(1, 9), a batched-solve
#: fast-path precision (m >= 1024), and non-zero seeds.
CONFIG_POOL = [
    (2, 20, 8, True, 0),
    (2, 20, 8, False, 0),
    (1, 9, 6, True, 3),
    (2, 16, 7, False, 1),
    (2, 20, 10, False, 0),
    (2, 24, 6, True, 0),
]

#: ``(kind, op, group)`` ops a schedule is built from.
OP_HASHES = "hashes"
OP_SKETCH = "sketch"
OP_COMPACT = "compact"


@dataclass(frozen=True)
class Step:
    """One schedule step: a keyed hash batch, a sketch merge, or a compact."""

    op: str
    group: str = ""
    hashes: "np.ndarray | None" = None  # OP_HASHES: the batch; OP_SKETCH: the
    # hashes the merged sketch was built from (built fresh per builder so no
    # state leaks between paths)


@dataclass(frozen=True)
class Scenario:
    """A reproducible cross-layer workload."""

    seed: int
    config: tuple  # (t, d, p, sparse, seed)
    steps: tuple

    @property
    def groups(self) -> list[str]:
        return sorted({step.group for step in self.steps if step.group})

    def hash_steps(self) -> "list[Step]":
        return [step for step in self.steps if step.op == OP_HASHES]

    def __repr__(self) -> str:  # short ids in pytest parametrisation
        return f"Scenario(seed={self.seed}, config={self.config}, steps={len(self.steps)})"


def rounds(default: int = 5) -> list[int]:
    """Seeds to run, scaled by the ``INVARIANT_ROUNDS`` env variable."""
    count = int(os.environ.get("INVARIANT_ROUNDS", default))
    return list(range(1, count + 1))


def random_scenario(seed: int, with_compaction: bool = True) -> Scenario:
    """Generate a seeded scenario: config, item streams, schedule."""
    rng = np.random.Generator(np.random.PCG64(seed))
    config = CONFIG_POOL[int(rng.integers(len(CONFIG_POOL)))]
    group_count = int(rng.integers(2, 6))
    groups = [f"g{index}" for index in range(group_count)]
    steps: list[Step] = []
    for _ in range(int(rng.integers(4, 12))):
        roll = rng.random()
        group = groups[int(rng.integers(group_count))]
        if roll < 0.70:
            # Hash batch: sizes span sparse-mode, densification-crossing
            # and comfortably-dense regimes.
            size = int(rng.integers(1, int(rng.choice([20, 200, 2000]))))
            hashes = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            steps.append(Step(OP_HASHES, group, hashes))
        elif roll < 0.85:
            # Sketch merge (the windowed-bucket-retirement record kind).
            size = int(rng.integers(1, 300))
            hashes = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            steps.append(Step(OP_SKETCH, group, hashes))
        elif with_compaction:
            steps.append(Step(OP_COMPACT))
    if not any(step.op == OP_HASHES for step in steps):
        hashes = rng.integers(0, 1 << 64, size=50, dtype=np.uint64)
        steps.append(Step(OP_HASHES, groups[0], hashes))
    return Scenario(seed=seed, config=config, steps=tuple(steps))


def fan_out_scenario(seed: int) -> Scenario:
    """A dense :func:`random_scenario` plus one stream that fans out.

    Random streams stay far below the one ``BULK_CHUNK`` a ``workers=``
    fold must exceed to split, so this adds more than two chunks of
    hashes to one group: at ``workers=2`` its fold runs two slices.
    """
    base = random_scenario(seed)
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    dense = [config for config in CONFIG_POOL if not config[3]]
    config = dense[int(rng.integers(len(dense)))]
    size = 2 * BULK_CHUNK + int(rng.integers(1, 4096))
    hashes = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
    big = Step(OP_HASHES, base.hash_steps()[0].group, hashes)
    return Scenario(seed=seed, config=config, steps=base.steps + (big,))


def stacked_scenario(seed: int) -> Scenario:
    """Runs of several segments over groups that are all dense.

    A first run gives 3 to 5 groups more hashes than any configuration's
    break-even, so every group is dense after it; each later run then
    holds every group once plus repeats, in random order and sizes,
    between sketch merges. :func:`build_segmented` folds such a run's
    dense groups as rows of one stacked fold.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    config = CONFIG_POOL[int(rng.integers(len(CONFIG_POOL)))]
    groups = [f"g{index}" for index in range(int(rng.integers(3, 6)))]

    def hashes(size: int) -> np.ndarray:
        return rng.integers(0, 1 << 64, size=size, dtype=np.uint64)

    def pick() -> str:
        return groups[int(rng.integers(len(groups)))]

    steps = [Step(OP_HASHES, group, hashes(3000)) for group in groups]
    for _ in range(int(rng.integers(2, 4))):
        steps.append(Step(OP_SKETCH, pick(), hashes(100)))
        run = groups + [pick() for _ in range(4)]
        for position in rng.permutation(len(run)).tolist():
            size = int(rng.integers(1, 400))
            steps.append(Step(OP_HASHES, run[position], hashes(size)))
    return Scenario(seed=seed, config=config, steps=tuple(steps))


def _merge_sketch(scenario: Scenario, step: Step):
    """The sketch a ``OP_SKETCH`` step merges (deterministic per step)."""
    t, d, p, sparse, _ = scenario.config
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    sketch = SparseExaLogLog(t, d, p) if len(step.hashes) < 30 else ExaLogLog(t, d, p)
    sketch.add_hashes(step.hashes)
    return sketch


def _apply_sketch_step(aggregator: DistinctCountAggregator, scenario, step) -> None:
    key = DistinctCountAggregator._group_key(step.group)
    aggregator.merge_sketch(key, _merge_sketch(scenario, step))


# -- builders: one per layer ---------------------------------------------------


def build_scalar(scenario: Scenario) -> DistinctCountAggregator:
    """Reference state: per-item ``add_hash`` loops, scalar merges."""
    aggregator = DistinctCountAggregator(*scenario.config)
    for step in scenario.steps:
        if step.op == OP_HASHES:
            key = DistinctCountAggregator._group_key(step.group)
            sketch = aggregator._groups.get(key)
            if sketch is None:
                sketch = aggregator._new_sketch()
                aggregator._groups[key] = sketch
            for value in step.hashes.tolist():
                sketch.add_hash(value)
        elif step.op == OP_SKETCH:
            _apply_sketch_step(aggregator, scenario, step)
    return aggregator


def build_bulk(scenario: Scenario) -> DistinctCountAggregator:
    """Vectorised path: per-batch ``add_hashes`` folds."""
    aggregator = DistinctCountAggregator(*scenario.config)
    for step in scenario.steps:
        if step.op == OP_HASHES:
            key = DistinctCountAggregator._group_key(step.group)
            sketch = aggregator._groups.get(key)
            if sketch is None:
                sketch = aggregator._new_sketch()
                aggregator._groups[key] = sketch
            sketch.add_hashes(step.hashes)
        elif step.op == OP_SKETCH:
            _apply_sketch_step(aggregator, scenario, step)
    return aggregator


def build_segmented(scenario: Scenario) -> DistinctCountAggregator:
    """Batch path: each run of consecutive hash steps in one ``fold_segments``.

    Sketch merges fall between runs, as a sketch record flushes a run in
    :func:`repro.store.sketchstore.apply_wal_record`. A group may appear
    several times in one run and cross break-even anywhere inside it.
    """
    from itertools import groupby

    aggregator = DistinctCountAggregator(*scenario.config)
    steps = [step for step in scenario.steps if step.op != OP_COMPACT]
    for hashing, run in groupby(steps, key=lambda step: step.op == OP_HASHES):
        if hashing:
            aggregator.fold_segments([(step.group, step.hashes) for step in run])
        else:
            for step in run:
                _apply_sketch_step(aggregator, scenario, step)
    return aggregator


def build_parallel(scenario: Scenario, workers: int = 2) -> DistinctCountAggregator:
    """Thread fan-out path: each group's full stream folds with ``workers``.

    Insertions are commutative and idempotent and the Algorithm 5 merge
    is exact, so rebatching per group cannot change the result — which
    is exactly the invariant being asserted.
    """
    aggregator = DistinctCountAggregator(*scenario.config)
    per_group: dict[str, list] = {}
    for step in scenario.steps:
        if step.op == OP_HASHES:
            per_group.setdefault(step.group, []).append(step.hashes)
    for group, arrays in per_group.items():
        key = DistinctCountAggregator._group_key(group)
        sketch = aggregator._groups.get(key)
        if sketch is None:
            sketch = aggregator._new_sketch()
            aggregator._groups[key] = sketch
        stream = np.concatenate(arrays)
        if hasattr(sketch, "is_sparse") and sketch.is_sparse:
            sketch.add_hashes(stream)  # sparse mode has no workers= knob
        else:
            sketch.add_hashes(stream, workers=workers)
    for step in scenario.steps:
        if step.op == OP_SKETCH:
            _apply_sketch_step(aggregator, scenario, step)
    return aggregator


def windowed_scenario(scenario: Scenario) -> Scenario:
    """``scenario``'s hash steps under a dense copy of its configuration.

    The sliding-window counter keeps dense buckets and takes no sketch
    merges, so :func:`build_windowed` compares against this scenario.
    """
    t, d, p, _, seed = scenario.config
    return Scenario(scenario.seed, (t, d, p, False, seed), tuple(scenario.hash_steps()))


def build_windowed(scenario: Scenario, path: str) -> DistinctCountAggregator:
    """Sliding-window path: group ``groups[i]`` is time bucket ``i``.

    The counter has one unit-wide bucket per group and a window that
    holds them all, so nothing is evicted. ``path`` is ``"per-item"``
    (every hash step in one ``add_hashes`` call with per-item
    timestamps ``i + 0.5``, so buckets arrive out of order) or
    ``"scalar"`` (one ``add_hashes`` call per step at its bucket's
    time). Each live bucket is then re-keyed to its group by
    ``merge_sketch`` into a fresh dense aggregator.
    """
    from repro.windowed import SlidingWindowDistinctCounter

    t, d, p, sparse, seed = scenario.config
    assert not sparse, "window buckets are dense: use windowed_scenario()"
    groups = scenario.groups
    counter = SlidingWindowDistinctCounter(
        window=len(groups), buckets=len(groups), t=t, d=d, p=p, seed=seed
    )
    time_of = {group: index + 0.5 for index, group in enumerate(groups)}
    steps = scenario.hash_steps()
    if path == "per-item":
        counter.add_hashes(
            np.concatenate([step.hashes for step in steps]),
            at=np.concatenate(
                [np.full(len(step.hashes), time_of[step.group]) for step in steps]
            ),
        )
    else:
        assert path == "scalar", path
        for step in steps:
            counter.add_hashes(step.hashes, at=time_of[step.group])
    aggregator = DistinctCountAggregator(*scenario.config)
    buckets = counter.aggregator.sketches()
    for index, group in enumerate(groups):
        aggregator.merge_sketch(group, buckets[f"{counter.prefix}{index}".encode()])
    return aggregator


def build_store(scenario: Scenario, directory) -> DistinctCountAggregator:
    """Durable path: WAL appends (+ scheduled compactions), then recovery.

    The returned state is what a *fresh process* recovers from disk —
    snapshot load plus WAL-tail replay — not the writer's live memory.
    """
    from repro.store import SketchStore

    t, d, p, sparse, seed = scenario.config
    store = SketchStore.open(directory, t=t, d=d, p=p, sparse=sparse, seed=seed)
    for step in scenario.steps:
        if step.op == OP_HASHES:
            store.append_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            store.merge_sketch(step.group, _merge_sketch(scenario, step))
        elif step.op == OP_COMPACT:
            store.compact()
    store.close()
    recovered = SketchStore.open(directory)
    aggregator = recovered.aggregator
    recovered.close()
    return aggregator


def build_follower(scenario: Scenario, leader_directory, follower_directory):
    """Replication path: run the schedule on a leader, ship every record.

    Each run of steps between compactions commits in one
    ``store.batch()``, so the follower applies multi-segment records,
    with sketch merges between them. Syncs mid-schedule (after every
    compaction, where the follower must fall back to a snapshot install)
    and once at the end; returns the caught-up follower's aggregator.
    """
    from repro.store import FollowerStore, SketchStore, WalShipper

    t, d, p, sparse, seed = scenario.config
    store = SketchStore.open(leader_directory, t=t, d=d, p=p, sparse=sparse, seed=seed)
    follower = FollowerStore.open(follower_directory)
    shipper = WalShipper(leader_directory)
    pending: list = []

    def commit() -> None:
        with store.batch():
            for step in pending:
                if step.op == OP_HASHES:
                    store.append_hashes(step.group, step.hashes)
                else:
                    store.merge_sketch(step.group, _merge_sketch(scenario, step))
        pending.clear()

    for step in scenario.steps:
        if step.op == OP_COMPACT:
            commit()
            shipper.sync(follower)  # sometimes catch up just before the log dies
            store.compact()
        elif step.op in (OP_HASHES, OP_SKETCH):
            pending.append(step)
    commit()
    shipper.sync(follower)
    assert follower.applied_lsn == store.durable_lsn
    store.close()
    follower.close()
    return follower.aggregator


def build_instrumented(scenario: Scenario, directory) -> DistinctCountAggregator:
    """Observability path: the durable pipeline with metrics + tracing on.

    Instrumentation must be purely observational — collecting counters,
    histograms, and spans through bulk ingest, WAL appends, compaction,
    recovery replay, and the batched estimate solve cannot perturb one
    register byte or one estimate float. Runs the same schedule as
    :func:`build_store` with ``REPRO_METRICS``/``REPRO_TRACE`` semantics
    scoped programmatically, exercises the estimation instrumentation,
    and returns the recovered state for comparison against a reference
    built with instrumentation off.
    """
    from repro.obs import metrics, trace

    with metrics.instrumented(), trace.tracing():
        aggregator = build_store(scenario, directory)
        aggregator.estimates()  # the Newton/solve histograms collect too
    return aggregator


def build_sharded_cluster(
    scenario: Scenario, directory, shards: int = 4
) -> DistinctCountAggregator:
    """Horizontal-sharding path: the schedule routed by ``shard_of``.

    Every keyed op lands on its owner shard (own WAL, own snapshot
    cadence); compactions hit every shard. The returned state is what a
    fresh process recovers from the cluster directory — per-shard
    snapshot load + WAL-tail replay — reassembled into one aggregator.
    Exact mergeability is why this must be bit-identical to a single
    store over the same stream.
    """
    from repro.cluster import ShardedStore

    t, d, p, sparse, seed = scenario.config
    cluster = ShardedStore.open(
        directory, shards=shards, t=t, d=d, p=p, sparse=sparse, seed=seed
    )
    for step in scenario.steps:
        if step.op == OP_HASHES:
            cluster.append_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            cluster.merge_sketch(step.group, _merge_sketch(scenario, step))
        elif step.op == OP_COMPACT:
            cluster.compact()
    cluster.close()
    recovered = ShardedStore.open(directory)
    aggregator = recovered.to_aggregator()
    recovered.close()
    return aggregator


def build_group_commit_cluster(
    scenario: Scenario, directory, shards: int = 3
) -> DistinctCountAggregator:
    """Group-commit path: ``fsync=True``, one commit per shard per run of steps.

    Every run of consecutive hash and sketch steps between compactions is
    written inside one ``cluster.batch()``, so each shard logs, fsyncs and
    applies it as a single commit. Inside the scope no shard's durable
    horizon moves. The returned state is what a fresh process recovers.
    """
    from itertools import groupby

    from repro.cluster import ShardedStore

    t, d, p, sparse, seed = scenario.config
    cluster = ShardedStore.open(
        directory, shards=shards, t=t, d=d, p=p, sparse=sparse, seed=seed, fsync=True
    )
    runs = groupby(scenario.steps, key=lambda step: step.op == OP_COMPACT)
    for compacting, run in runs:
        if compacting:
            for _ in run:
                cluster.compact()
            continue
        horizons = [shard.durable_lsn for shard in cluster.shard_stores]
        with cluster.batch():
            for step in run:
                if step.op == OP_HASHES:
                    cluster.append_hashes(step.group, step.hashes)
                else:
                    cluster.merge_sketch(step.group, _merge_sketch(scenario, step))
            assert [shard.durable_lsn for shard in cluster.shard_stores] == horizons
    cluster.close()
    recovered = ShardedStore.open(directory)
    aggregator = recovered.to_aggregator()
    recovered.close()
    return aggregator


def build_rebalanced_cluster(
    scenario: Scenario, directory, shards: int = 3, new_shards: int = 5
) -> DistinctCountAggregator:
    """Sharding path with a mid-schedule rebalance (``shards`` → ``new_shards``).

    Half the schedule lands under the old fan-out, then whole group
    sketches ship to their new owners behind cutover fences, then the
    rest of the schedule lands under the new fan-out — the moved-sketch
    merges and drops must be invisible in the final registers.
    """
    from repro.cluster import ShardedStore

    t, d, p, sparse, seed = scenario.config
    cluster = ShardedStore.open(
        directory, shards=shards, t=t, d=d, p=p, sparse=sparse, seed=seed
    )
    pivot = len(scenario.steps) // 2
    for index, step in enumerate(scenario.steps):
        if index == pivot:
            cluster.rebalance(new_shards)
        if step.op == OP_HASHES:
            cluster.append_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            cluster.merge_sketch(step.group, _merge_sketch(scenario, step))
        elif step.op == OP_COMPACT:
            cluster.compact()
    cluster.close()
    recovered = ShardedStore.open(directory)
    aggregator = recovered.to_aggregator()
    recovered.close()
    return aggregator


# -- query plane ---------------------------------------------------------------


def build_query_plane_sources(scenario: Scenario, directory):
    """Every read surface over one identical hash stream, as sources.

    Replays the scenario's *hash* steps (the one record kind every layer
    ingests natively — sketch merges and compactions are covered by the
    ingest-path builders above) into five independently-built
    :class:`repro.query.SketchSource` layers:

    ``aggregator``
        In-memory :class:`~repro.aggregate.DistinctCountAggregator`.
    ``store``
        Live :class:`~repro.store.SketchStore` writer (WAL + snapshots).
    ``reader``
        Lock-free :class:`~repro.store.SnapshotReader` over the live
        writer's directory.
    ``follower``
        WAL-shipped :class:`~repro.store.FollowerStore` replica.
    ``spill``
        Hash-partitioned external :class:`~repro.store.SpilledGroupBy`.

    Returns ``(sources, close)``; call ``close()`` when done.
    """
    from repro.store import (
        FollowerStore,
        SketchStore,
        SnapshotReader,
        SpilledGroupBy,
        WalShipper,
    )

    t, d, p, sparse, seed = scenario.config
    steps = scenario.hash_steps()

    aggregator = DistinctCountAggregator(*scenario.config)
    store = SketchStore.open(
        directory / "store", t=t, d=d, p=p, sparse=sparse, seed=seed
    )
    spill = SpilledGroupBy(
        directory / "spill", t=t, d=d, p=p, sparse=sparse, seed=seed, partitions=4
    )
    for step in steps:
        key = DistinctCountAggregator._group_key(step.group)
        sketch = aggregator._groups.get(key)
        if sketch is None:
            sketch = aggregator._new_sketch()
            aggregator._groups[key] = sketch
        sketch.add_hashes(step.hashes)
        store.append_hashes(step.group, step.hashes)
        spill.write_segments([(key, step.hashes)])

    reader = SnapshotReader.open(directory / "store")
    follower = FollowerStore.open(directory / "follower")
    WalShipper(directory / "store").sync(follower)
    assert follower.applied_lsn == store.durable_lsn

    sources = {
        "aggregator": aggregator,
        "store": store,
        "reader": reader,
        "follower": follower,
        "spill": spill,
    }

    def close() -> None:
        reader.close()
        follower.close()
        store.close()
        spill.close()

    return sources, close


def build_query_plans(scenario: Scenario) -> dict:
    """Representative logical plans for one scenario (source-agnostic).

    Keys name the shape; every plan references only the default scan, so
    the same tree executes over each layer of
    :func:`build_query_plane_sources` and must return identical rows.
    """
    from repro.query import Estimate, Filter, Scan, SetOp, TopK

    groups = scenario.groups
    half = max(1, len(groups) // 2)
    plans = {
        "estimate-all": Estimate(Scan()),
        "top-3": TopK(Scan(), 3),
        "filter-keys": Estimate(Filter(Scan(), keys=tuple(groups[:half]))),
        "filter-prefix": TopK(Filter(Scan(), prefix="g"), 2),
        "union-halves": SetOp(
            "union",
            Filter(Scan(), keys=tuple(groups[:half])),
            Filter(Scan(), keys=tuple(groups[half:]) or tuple(groups[:1])),
        ),
        "intersect-self": SetOp(
            "intersect",
            Filter(Scan(), keys=tuple(groups[:half])),
            Filter(Scan(), keys=tuple(groups[:half])),
        ),
    }
    return plans


# -- comparisons ---------------------------------------------------------------


def register_bytes(aggregator: DistinctCountAggregator) -> dict[bytes, bytes]:
    """Per-group serialized sketch bytes (the bit-identity currency)."""
    return {
        key: sketch.to_bytes() for key, sketch in sorted(aggregator._groups.items())
    }


def assert_identical(reference: DistinctCountAggregator, other, label: str) -> None:
    """Byte-level equality of two aggregator states, with a precise diff."""
    mine = register_bytes(reference)
    theirs = register_bytes(other)
    assert mine.keys() == theirs.keys(), (
        f"{label}: group sets differ: {sorted(mine)} vs {sorted(theirs)}"
    )
    for key in mine:
        assert mine[key] == theirs[key], (
            f"{label}: registers of group {key!r} are not bit-identical"
        )
    assert reference.to_bytes() == other.to_bytes(), f"{label}: aggregator bytes differ"
