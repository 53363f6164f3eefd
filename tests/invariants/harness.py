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
from repro.core.exaloglog import ExaLogLog
from repro.core.sparse import SparseExaLogLog
from repro.hashing import to_bytes
from repro.storage.serialization import write_header, write_uvarint

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
    """Runs of several segments over dense groups and two small ones.

    A first run gives 3 to 5 groups more hashes than any configuration's
    break-even, so they are dense after it; each later run then holds
    every such group once plus repeats, in random order and sizes,
    between sketch merges, and three hashes for each of two small groups,
    which stay in token mode under a sparse configuration.
    :func:`build_segmented` folds such a run's dense groups as rows of
    one stacked fold into the register block and the small groups'
    tokens into the token array.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    config = CONFIG_POOL[int(rng.integers(len(CONFIG_POOL)))]
    groups = [f"g{index}" for index in range(int(rng.integers(3, 6)))]

    def hashes(size: int) -> np.ndarray:
        return rng.integers(0, 1 << 64, size=size, dtype=np.uint64)

    def pick() -> str:
        return groups[int(rng.integers(len(groups)))]

    steps = [Step(OP_HASHES, group, hashes(3000)) for group in groups]
    small = ["s0", "s1"]
    for _ in range(int(rng.integers(2, 4))):
        steps.append(Step(OP_SKETCH, pick(), hashes(100)))
        run = groups + [pick() for _ in range(4)]
        for position in rng.permutation(len(run) + len(small)).tolist():
            if position < len(run):
                size = int(rng.integers(1, 400))
                steps.append(Step(OP_HASHES, run[position], hashes(size)))
            else:  # a token-mode row beside the dense ones (sparse configs)
                steps.append(Step(OP_HASHES, small[position - len(run)], hashes(3)))
    return Scenario(seed=seed, config=config, steps=tuple(steps))


class ScalarOracle:
    """Per-group sketches in a plain dict, fed by the paper's algorithms.

    The reference of every bit-identity check: each group is its own
    :class:`SparseExaLogLog` (or :class:`ExaLogLog` when not sparse),
    inserted into by Algorithm 2 (``add_hash``, or the sketch's own bulk
    ``add_hashes``) and merged by the sketches' own ``merge_inplace``.
    It never runs an aggregator, so it cannot share the aggregator's
    arrays or their defects. :meth:`to_bytes` writes the aggregator's
    snapshot format from the per-group blobs.
    """

    def __init__(self, t=2, d=20, p=8, sparse=True, seed=0) -> None:
        self.config = (t, d, p, sparse, seed)
        self.sketches: "dict[bytes, ExaLogLog | SparseExaLogLog]" = {}

    def sketch(self, group):
        """``group``'s sketch, created empty on first use."""
        key = to_bytes(group)
        sketch = self.sketches.get(key)
        if sketch is None:
            t, d, p, sparse, _ = self.config
            sketch = SparseExaLogLog(t, d, p) if sparse else ExaLogLog(t, d, p)
            self.sketches[key] = sketch
        return sketch

    def add_hashes(self, group, hashes, scalar: bool = True) -> "ScalarOracle":
        """Insert ``hashes``: one ``add_hash`` each, or one sketch ``add_hashes``."""
        sketch = self.sketch(group)
        if scalar:
            for value in np.asarray(hashes, dtype=np.uint64).tolist():
                sketch.add_hash(value)
        else:
            sketch.add_hashes(hashes)
        return self

    def merge_sketch(self, group, other) -> "ScalarOracle":
        mine = self.sketch(group)
        if not isinstance(mine, SparseExaLogLog) and isinstance(other, SparseExaLogLog):
            other = other.copy().densify()
        mine.merge_inplace(other)
        return self

    def drop_group(self, group) -> "ScalarOracle":
        self.sketches.pop(to_bytes(group), None)
        return self

    def estimates(self) -> "dict[bytes, float]":
        """Each group's own scalar ``estimate()``."""
        return {key: sketch.estimate() for key, sketch in self.sketches.items()}

    def to_bytes(self) -> bytes:
        """The aggregator snapshot format, written from the per-group blobs."""
        t, d, p, sparse, seed = self.config
        buffer = write_header(0x30)
        buffer.extend((t, d, p, 1 if sparse else 0))
        write_uvarint(buffer, seed)
        write_uvarint(buffer, len(self.sketches))
        for key in sorted(self.sketches):
            blob = self.sketches[key].to_bytes()
            write_uvarint(buffer, len(key))
            buffer.extend(key)
            write_uvarint(buffer, len(blob))
            buffer.extend(blob)
        return bytes(buffer)


def _merge_sketch(scenario: Scenario, step: Step):
    """The sketch a ``OP_SKETCH`` step merges (deterministic per step)."""
    t, d, p, sparse, _ = scenario.config
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    sketch = SparseExaLogLog(t, d, p) if len(step.hashes) < 30 else ExaLogLog(t, d, p)
    sketch.add_hashes(step.hashes)
    return sketch


def _apply_sketch_step(target, scenario, step) -> None:
    target.merge_sketch(to_bytes(step.group), _merge_sketch(scenario, step))


# -- builders: one per layer ---------------------------------------------------


def build_scalar(scenario: Scenario) -> ScalarOracle:
    """Reference state: per-item ``add_hash`` loops and the sketches' own merges."""
    oracle = ScalarOracle(*scenario.config)
    for step in scenario.steps:
        if step.op == OP_HASHES:
            oracle.add_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            _apply_sketch_step(oracle, scenario, step)
    return oracle


def build_bulk(scenario: Scenario) -> ScalarOracle:
    """Vectorised sketch path: one sketch ``add_hashes`` per batch."""
    oracle = ScalarOracle(*scenario.config)
    for step in scenario.steps:
        if step.op == OP_HASHES:
            oracle.add_hashes(step.group, step.hashes, scalar=False)
        elif step.op == OP_SKETCH:
            _apply_sketch_step(oracle, scenario, step)
    return oracle


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


def build_parallel(scenario: Scenario, workers: int = 2) -> ScalarOracle:
    """Thread fan-out path: each group's full stream folds with ``workers``.

    Insertions are commutative and idempotent and the Algorithm 5 merge
    is exact, so rebatching per group cannot change the result — which
    is exactly the invariant being asserted.
    """
    oracle = ScalarOracle(*scenario.config)
    per_group: dict[str, list] = {}
    for step in scenario.steps:
        if step.op == OP_HASHES:
            per_group.setdefault(step.group, []).append(step.hashes)
    for group, arrays in per_group.items():
        sketch = oracle.sketch(group)
        stream = np.concatenate(arrays)
        if hasattr(sketch, "is_sparse") and sketch.is_sparse:
            sketch.add_hashes(stream)  # sparse mode has no workers= knob
        else:
            sketch.add_hashes(stream, workers=workers)
    for step in scenario.steps:
        if step.op == OP_SKETCH:
            _apply_sketch_step(oracle, scenario, step)
    return oracle


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
    for index, group in enumerate(groups):
        aggregator.merge_sketch(group, counter.group_sketch(f"{counter.prefix}{index}"))
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
        key = to_bytes(step.group)
        aggregator.fold(key, step.hashes)
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
        # Point reads: known keys, an unseen key and a repeated key.
        "filter-keys-mixed": Estimate(
            Filter(Scan(), keys=(*groups[:half], "never-seen", groups[0]))
        ),
        "top-keys": TopK(Filter(Scan(), keys=tuple(groups)), 2),
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


def register_bytes(state) -> dict[bytes, bytes]:
    """Per-group serialized sketch bytes (the bit-identity currency).

    ``state`` is a :class:`ScalarOracle` or an aggregator, whose groups
    are read through its public ``group_sketch``.
    """
    if isinstance(state, ScalarOracle):
        return {key: state.sketches[key].to_bytes() for key in sorted(state.sketches)}
    return {key: state.group_sketch(key).to_bytes() for key in sorted(state.groups())}


def assert_identical(reference, other, label: str) -> None:
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


# -- the columnar aggregator, step by step ------------------------------------


def interleaved_scenario(seed: int, config=None) -> "list[tuple]":
    """A seeded op list for :func:`check_interleaved`, over 6 groups.

    Ops are ``("add_hash", group, hashes)`` (one ``add_hash`` per
    hash), ``("fold", [(group, hashes), ...])`` (one ``fold_segments``
    batch: repeated groups, empty slices, and slices that carry a
    token-mode group past break-even), ``("merge", group, hashes,
    sparse)``, ``("drop", group)`` and re-adds of dropped groups,
    ``("merge_inplace", [(group, hashes), ...], solved)`` (another
    aggregator folded from the batch, its estimates read first when
    ``solved``, merged in: the 6 groups, which both sides may hold,
    and one group only the other side holds), ``("copy", group,
    hashes)`` (go on with a copy; the original takes the hashes) and
    ``("reopen",)`` (go on with ``from_bytes(to_bytes())``).
    """
    rng = np.random.Generator(np.random.PCG64([seed, 3]))
    if config is None:
        config = CONFIG_POOL[int(rng.integers(len(CONFIG_POOL)))]
    t, d, p, _, _ = config
    break_even = SparseExaLogLog(t, d, p).break_even_tokens
    groups = [f"g{index}" for index in range(6)]

    def hashes(size: int) -> np.ndarray:
        return rng.integers(0, 1 << 64, size=size, dtype=np.uint64)

    def batch(extra=()) -> list:
        """Segments for 2–8 random picks of the groups, then ``extra``."""
        count = int(rng.integers(2, 9))
        picks = [groups[int(rng.integers(len(groups)))] for _ in range(count)]
        sizes = [0, 1, 5, break_even // 2, break_even + 3]
        return [(pick, hashes(int(rng.choice(sizes)))) for pick in [*picks, *extra]]

    ops: "list[tuple]" = []
    for step in range(int(rng.integers(10, 16))):
        roll = rng.random()
        group = groups[int(rng.integers(len(groups)))]
        if roll < 0.2:
            ops.append(("add_hash", group, hashes(int(rng.integers(1, 40)))))
        elif roll < 0.5:
            ops.append(("fold", batch()))
        elif roll < 0.65:
            ops.append(("merge", group, hashes(int(rng.integers(0, 2 * break_even))), rng.random() < 0.5))
        elif roll < 0.75:
            ops.append(("drop", group))
        elif roll < 0.88:
            ops.append(("merge_inplace", batch([f"m{step}"]), rng.random() < 0.5))
        elif roll < 0.94:
            ops.append(("copy", group, hashes(int(rng.integers(1, 40)))))
        else:
            ops.append(("reopen",))
    return config, ops


def _merged_sketch(config, hashes, sparse: bool):
    t, d, p, _, _ = config
    sketch = SparseExaLogLog(t, d, p) if sparse else ExaLogLog(t, d, p)
    return sketch.add_hashes(hashes)


def check_reads(aggregator, oracle, probe, label: str, reverse: bool = False) -> None:
    """A point ``estimate(probe)``, ``top(3)`` and ``estimates()`` of
    ``aggregator`` against the oracle's (``reverse`` reads them in the
    opposite order), so each read both solves rows and finds rows
    another read solved."""
    from repro.estimation.batch import rank

    expected = oracle.estimates()
    reads = [
        ("estimate", lambda: aggregator.estimate(probe), expected.get(to_bytes(probe), 0.0)),
        ("top(3)", lambda: aggregator.top(3), rank(list(expected.items()), 3)),
        ("estimates", aggregator.estimates, expected),
    ]
    for name, read, want in reversed(reads) if reverse else reads:
        assert read() == want, f"{label}: {name}"


def check_interleaved(config, ops) -> DistinctCountAggregator:
    """Run ``ops`` on two aggregators and on a :class:`ScalarOracle`.

    After every op, the first aggregator's group sketch bytes, its bytes
    and its reads (:func:`check_reads`: a point estimate of the op's
    group, or of each group in turn, ``top(3)`` and every estimate)
    must equal the oracle's, so every write must unsolve what it
    changed in the aggregator's estimate column. The second one is read
    only once, at the end, so state an aggregator defers to its next
    read (buffered tokens, rows waiting for reuse) piles up across ops.
    """
    aggregator = DistinctCountAggregator(*config)
    quiet = DistinctCountAggregator(*config)
    oracle = ScalarOracle(*config)
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "add_hash":
            for target in (aggregator, quiet):
                for value in op[2].tolist():
                    target.add_hash(op[1], value)
            oracle.add_hashes(op[1], op[2])
        elif kind in ("fold", "merge_inplace"):
            if kind == "fold":
                for target in (aggregator, quiet):
                    target.fold_segments(op[1])
            else:
                other = DistinctCountAggregator(*config).fold_segments(op[1])
                if op[2]:
                    other.estimates()  # its copied groups keep what it solved
                for target in (aggregator, quiet):
                    target.merge_inplace(other)
            for group, hashes in op[1]:
                oracle.add_hashes(group, hashes)
        elif kind == "merge":
            for target in (aggregator, quiet, oracle):
                target.merge_sketch(op[1], _merged_sketch(config, op[2], op[3]))
        elif kind == "drop":
            for target in (aggregator, quiet, oracle):
                target.drop_group(op[1])
        elif kind == "copy":
            original, aggregator = aggregator, aggregator.copy()
            original.fold(op[1], op[2])  # must not reach the copy
        else:
            aggregator = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
        label = f"step {step} ({kind})"
        assert_identical(oracle, aggregator, label)
        if len(op) > 1 and isinstance(op[1], str):
            probe = op[1]
        else:
            keys = sorted(oracle.sketches) or [b"g0"]
            probe = keys[step % len(keys)]
        check_reads(aggregator, oracle, probe, label, reverse=step % 2 == 1)
    assert_identical(oracle, quiet, "read only at the end")
    assert quiet.estimates() == oracle.estimates(), "read only at the end"
    return aggregator
