"""The four system workloads: inputs, timed rounds and correctness checks.

Every workload is a closed loop with one client in one process: each op
starts when the previous one returned, with no worker pool
(``workers=None``) and no threads. Inputs come from ``--seed`` and are
generated before any timer starts; only the program's calls are timed
(:class:`OpClock`), so a rate is work divided by summed op time, not by
loop wall time.

A run is a sequence of rounds, and every round runs the workload's whole
op mix — ingest, point queries, ``top(10)``, a restart — on state of the
same size. Each metric therefore takes its samples from every stretch of
the run: a slow spell of the host touches a few samples of every metric
instead of all samples of one, and the medians hold. Reads that are only
gathered at the end of a run spread 25-35% between runs of the same code
where the host had such spells.

The number of rounds is fixed per run and scales with ``--seconds``: at
10 s each workload's timed ops take roughly that long on a 2-CPU box. The
same seed and length therefore give the same ops and the same per-layer
counts. ``smoke`` shrinks the data but keeps every sample count a
percentile needs; ``warm`` is one tiny round run on scratch state during
set-up, so lazy initialisation (the first ``estimates()`` of a process
builds its tables) is paid before timing starts.

Checks run between ops, outside the timed region, against references the
benchmark builds itself.
"""

from __future__ import annotations

import hashlib
import pathlib
import resource
import shutil
from time import perf_counter

import numpy as np

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.cluster.meta import replica_path
from repro.core.sparse import SparseExaLogLog
from repro.hashing.batch import hash_items
from repro.query import Estimate, Filter, Scan, executor, query
from repro.store import FollowerStore, SpilledGroupBy, spill_files
from repro.theory.mvp import theoretical_relative_rmse

from hostspeed import FsyncMeter, host_speed, normalised, reference_kernel
from stats import median, percentile, samples_beyond

T, D, P = 2, 20, 8

#: Items are drawn below 2**ITEM_BITS; reusing a recycled input batch in
#: round r adds r << ITEM_BITS, so every round's items stay distinct.
ITEM_BITS = 40

#: Recycled input pools stay below this many bytes.
POOL_BYTES = 64 << 20

#: Estimates must lie within this many theoretical RMSEs of the truth.
ERROR_RMSES = 6

#: Every UNSEEN_EVERY-th point query asks for a key that was never written.
UNSEEN_EVERY = 20

#: Probes on each side of an op's own probe that set its host speed:
#: with 1, the probes just before and just after the op bracket it.
SPEED_WINDOW = 1


class OpClock:
    """Times each op of a workload; under tracing each op is a root span.

    The host-speed probe (:mod:`hostspeed`) runs right before every op,
    outside its timed region, and each op's time is reported normalised:
    the time outside ``os.fsync`` multiplied by the host speed over the
    probes of the neighbouring ops, plus a nominal time per fsync. Fsyncs
    are counted only while :attr:`fsync` is entered. Raw times stay
    available for diagnostics.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.fsync = FsyncMeter()
        self.ops: "list[tuple[str, float, int, float]]" = []
        self.references: "list[float]" = []
        self.attempted = 0
        self.failed = 0

    def run(self, kind: str, function, *args, **kwargs):
        """Call ``function`` as one timed op of ``kind``; returns its result."""
        self.attempted += 1
        self.references.append(reference_kernel())
        tracer, fsync = self.tracer, self.fsync
        fsyncs, fsync_seconds = fsync.calls, fsync.seconds
        span = tracer.begin_op(kind) if tracer is not None else None
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        finally:
            end = perf_counter()
            if span is not None:
                tracer.end_op(span, start, end)
        self.ops.append((kind, end - start, fsync.calls - fsyncs, fsync.seconds - fsync_seconds))
        return result

    def samples(self, kind: str, raw: bool = False) -> "list[float]":
        """Normalised (or ``raw``) seconds of every op of ``kind``, in order."""
        out = []
        for index, (op_kind, seconds, fsyncs, fsync_seconds) in enumerate(self.ops):
            if op_kind != kind:
                continue
            if not raw:
                window = self.references[max(0, index - SPEED_WINDOW):index + SPEED_WINDOW + 1]
                seconds = normalised(seconds, host_speed(window), fsyncs, fsync_seconds)
            out.append(seconds)
        return out

    def kinds(self) -> "list[str]":
        return list(dict.fromkeys(op[0] for op in self.ops))

    def total(self) -> float:
        """Normalised seconds of every op."""
        return sum(sum(self.samples(kind)) for kind in self.kinds())


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports it in KiB) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(cluster: ShardedStore) -> str:
    return hashlib.sha256(cluster.to_aggregator().to_bytes()).hexdigest()


def point_plan(group) -> Estimate:
    """``estimate <group>`` as a plan: the dialect cannot spell integer keys."""
    return Estimate(Filter(Scan(), keys=(group,)))


def answer_value(rows) -> float:
    """A point query's estimate; a group that was never written reads 0."""
    return rows[0][1] if rows else 0.0


def sketch_estimate(sketch) -> float:
    """A reference point answer: the scalar estimate of one group's sketch."""
    return sketch.estimate() if sketch is not None else 0.0


def ranked(estimates: dict) -> list:
    """The ten largest estimates, ties in insertion order."""
    return sorted(estimates.items(), key=lambda kv: -kv[1])[:10]


def is_top(top: list, estimates: dict) -> bool:
    """Whether ``top`` holds the ten largest of ``estimates``, largest first.

    Groups tied at the tenth place may be any of the tied ones: a cluster
    keeps each shard's first ties, an aggregator its first overall.
    """
    values = [value for _, value in top]
    return (values == sorted(estimates.values(), reverse=True)[:10]
            and all(estimates.get(key) == value for key, value in top))


def within_error(estimate: float, exact: int) -> bool:
    bound = ERROR_RMSES * theoretical_relative_rmse(T, D, P) * exact
    return abs(estimate - exact) <= bound


def random_items(rng, size: int) -> np.ndarray:
    return rng.integers(0, 1 << ITEM_BITS, size, dtype=np.int64)


def evenly(total: int, count: int) -> "set[int]":
    """``count`` of the positions ``0..total-1``, each centred in an equal stretch."""
    return {(2 * number + 1) * total // (2 * count) for number in range(min(count, total))}


def unseen_mask(count: int) -> np.ndarray:
    """Which of ``count`` point queries ask for a never-written key.

    Exactly every ``UNSEEN_EVERY``-th: these lookups are cheaper than the
    rest, so a share drawn at random would move the median with the seed.
    """
    return np.arange(count) % UNSEEN_EVERY == UNSEEN_EVERY - 1


def strata(rng, size: int) -> np.ndarray:
    """``size`` uniform draws in [0, 1), one from each equal stratum, shuffled.

    A lookup's cost grows with its group's size, and with independent
    draws the mix of large and small groups among a few hundred lookups
    moves a median by 10% from seed to seed; one draw per stratum keeps
    the mix the same for every seed while the keys still change.
    """
    return (rng.permutation(size) + rng.random(size)) / size


class ZipfKeys:
    """Key indices drawn Zipf(``exponent``) over ``n`` keys of shuffled rank."""

    def __init__(self, rng, n: int, exponent: float = 1.1) -> None:
        weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
        self._cdf = np.cumsum(weights / weights.sum())
        self._key_of_rank = rng.permutation(n)
        self._rng = rng

    def draw(self, size: int) -> np.ndarray:
        return self._at(self._rng.random(size))

    def draw_strata(self, size: int) -> np.ndarray:
        """``size`` draws, one from each equally likely stratum of ranks."""
        return self._at(strata(self._rng, size))

    def _at(self, quantiles: np.ndarray) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, quantiles, side="right")
        return self._key_of_rank[np.minimum(ranks, len(self._cdf) - 1)]


class BatchPool:
    """Pre-generated ``(groups, items)`` batches, recycled with item offsets."""

    def __init__(self, batches: "list[tuple]") -> None:
        self._batches = batches

    def get(self, index: int):
        groups, items = self._batches[index % len(self._batches)]
        round_ = index // len(self._batches)
        return groups, items + (np.int64(round_) << ITEM_BITS) if round_ else items

    def concatenated(self, start: int, stop: int) -> "tuple[np.ndarray, np.ndarray]":
        """Groups and items of batches ``start..stop-1``, end to end."""
        batches = [self.get(index) for index in range(start, stop)]
        return (np.concatenate([groups for groups, _ in batches]),
                np.concatenate([items for _, items in batches]))

    @staticmethod
    def pool_size(batches: int, rows: int) -> int:
        """Batches a pool may hold: int64 groups + items per row."""
        return max(1, min(batches, POOL_BYTES // (16 * rows)))


class Workload:
    """Base: set-up, shared ops and checks, metrics. Subclasses add the rest."""

    name = ""

    def __init__(self, seed: int, mode: str = "full", seconds: float = 10.0) -> None:
        self.seed = seed
        self.mode = mode
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)
        self.failures: "list[str]" = []

    def count(self, per_second: float, floor: int, warm: int = 1) -> int:
        """Op count: ``per_second`` x seconds in full runs, ``floor`` in smoke."""
        if self.mode == "warm":
            return warm
        if self.mode == "smoke":
            return floor
        return max(floor, int(per_second * self.seconds + 0.5))

    def sized(self, full: int, smoke: int, warm: int) -> int:
        return {"full": full, "smoke": smoke, "warm": warm}[self.mode]

    def setup(self, workdir: pathlib.Path) -> None:
        """Warm every lazy path on scratch state, then create the real state."""
        warm = type(self)(self.seed + 7919, "warm")
        warm.generate()
        warm.create(workdir / "warm")
        warm.measure(OpClock())
        self.create(workdir / "state")

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def point_query(self, clock: OpClock, source, key, expected: float) -> None:
        """One timed point query through the query plane, checked."""
        rows = clock.run("point_query", executor.execute, point_plan(key), source).rows
        self.check_answer(key, answer_value(rows), expected)

    def check_answer(self, key, answer: float, expected: float) -> None:
        self.expect(answer == expected, f"point query {key}: {answer} != {expected}")

    def end_to_end(self, clock: OpClock, rows: int, raw: bool = False) -> dict:
        """The end-to-end metrics every workload reports (bar set-up and RSS)."""
        ingest = clock.samples("ingest", raw)
        return {
            "ingest_rows_per_s": rows / sum(ingest),
            "batch_p50_ms": percentile(ingest, 50) * 1e3,
            "top_ms": median(clock.samples("top", raw)) * 1e3,
            "point_query_p50_ms": percentile(clock.samples("point_query", raw), 50) * 1e3,
            "recover_s": median(clock.samples("recover", raw)),
        }

    def diagnostics(self, clock: OpClock, rows: int) -> dict:
        """Unbounded extras: tails, workload-specific ops and raw times."""
        values = {"host_speed": host_speed(clock.references)}
        if clock.fsync.calls:
            values["fsync_us"] = clock.fsync.seconds / clock.fsync.calls * 1e6
        for kind in clock.kinds():
            if kind in ("top", "recover"):
                continue  # end-to-end metrics
            samples = clock.samples(kind)
            label = "batch" if kind == "ingest" else kind
            tails = [q for q in (50, 75, 90) if samples_beyond(len(samples), q) >= 10]
            if not tails:
                values[f"{label}_s"] = median(samples)
            for q in tails:
                if q != 50 or kind not in ("ingest", "point_query"):
                    values[f"{label}_p{q}_ms"] = percentile(samples, q) * 1e3
        values.update(self.extra_diagnostics(clock, rows))
        values.update(
            (f"raw_{name}", value) for name, value in self.end_to_end(clock, rows, raw=True).items()
        )
        return values

    def extra_diagnostics(self, clock: OpClock, rows: int) -> dict:
        return {}

    # Subclass interface ---------------------------------------------------------

    def generate(self) -> None:
        raise NotImplementedError

    def create(self, directory: pathlib.Path) -> None:
        """Create the state the rounds start from (or where they keep it)."""
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def measure(self, clock: OpClock) -> dict:
        """Run every round; returns facts for the per-layer ratios.

        ``rows`` ingested, plus ``wal_bytes`` or ``spill_bytes`` written.
        """
        raise NotImplementedError

    def check(self) -> "list[str]":
        """Checks that need the whole run; returns the failures so far.

        A systematic fault fails every op alike, so the first few
        messages say all there is and the rest are counted.
        """
        if len(self.failures) <= 10:
            return self.failures
        return self.failures[:10] + [f"... and {len(self.failures) - 10} more failed checks"]


class IngestMem(Workload):
    """Grouped in-memory ingest: the factorise + scatter front end.

    One aggregator takes every batch; its 64 groups are dense after the
    first one, so every round's reads cost the same. A round ingests one
    batch, answers one point query and one ``top(10)``. Restarts — restore
    from the aggregator's bytes and answer one point query — and
    ``estimates()`` calls are spread evenly over the rounds. Restoring
    (``from_bytes``) is not a traced site, so restarts stay few enough to
    keep its share of op time inside the closure tolerance.
    """

    name = "ingest_mem"
    GROUPS = 64

    def generate(self) -> None:
        self.rows = self.sized(16384, 512, 16384)
        self.rounds = self.count(40, 100, warm=2)
        pool = BatchPool.pool_size(self.rounds, self.rows)
        self.pool = BatchPool([
            (self.rng.integers(0, self.GROUPS, self.rows, dtype=np.int64),
             random_items(self.rng, self.rows))
            for _ in range(pool)
        ])
        self.point_keys = (
            self.rng.integers(0, self.GROUPS, self.rounds)
            + np.where(unseen_mask(self.rounds), self.GROUPS, 0)
        ).tolist()
        self.restart_rounds = evenly(self.rounds, self.count(3, 2))
        self.estimate_rounds = evenly(self.rounds, self.count(1, 5))

    def create(self, directory: pathlib.Path) -> None:
        self.aggregator = DistinctCountAggregator(T, D, P)

    @staticmethod
    def restore(blob: bytes, key):
        restored = DistinctCountAggregator.from_bytes(blob)
        return restored, executor.execute(point_plan(key), restored).rows

    def measure(self, clock: OpClock) -> dict:
        aggregator = self.aggregator
        for number in range(self.rounds):
            clock.run("ingest", aggregator.add_batch, *self.pool.get(number))
            key = self.point_keys[number]
            expected = sketch_estimate(aggregator.group_sketch(key))
            if number in self.restart_rounds:
                blob = aggregator.to_bytes()
                restored, rows = clock.run("recover", self.restore, blob, key)
                self.expect(restored == aggregator, f"round {number}: from_bytes(to_bytes()) differs")
                self.check_answer(key, answer_value(rows), expected)
            self.point_query(clock, aggregator, key, expected)
            top = clock.run("top", aggregator.top, 10)
            self.expect(top == ranked(aggregator.estimates()),
                        f"round {number}: top(10) disagrees with estimates()")
            if number in self.estimate_rounds:
                clock.run("estimate_all", aggregator.estimates)
        return {"rows": self.rounds * self.rows}

    def check(self) -> "list[str]":
        aggregator = self.aggregator
        estimates = aggregator.estimates()
        groups, items = self.pool.concatenated(0, self.rounds)
        order = np.argsort(groups, kind="stable")
        bounds = np.searchsorted(groups[order], np.arange(self.GROUPS + 1))
        for group in range(self.GROUPS):
            members = items[order[bounds[group]:bounds[group + 1]]]
            exact = len(np.unique(members))
            estimate = estimates.get(DistinctCountAggregator._group_key(group), 0.0)
            self.expect(within_error(estimate, exact),
                        f"group {group}: estimate {estimate:.1f} vs exact {exact}")
            reference = SparseExaLogLog(T, D, P).add_hashes(hash_items(members))
            sketch = aggregator.group_sketch(group)
            self.expect(sketch is not None and sketch.to_bytes() == reference.to_bytes(),
                        f"group {group}: sketch differs from one whole-input add_hashes")
        return super().check()


class IngestDurable(Workload):
    """Durable cluster ingest with fsync: one WAL record and fsync per group.

    Each round fills a fresh 2-shard cluster. After every batch come point
    queries on keys the round has written so far, one from each size
    stratum of those groups (a lookup of a key the round has not reached
    is a cheaper kind of op, and a share of such keys that changes with
    the seed would move the median). At the end come ``top(10)`` and
    ``estimates()``, then restarts — close, reopen with WAL replay, answer
    one point query — each followed by another ``top(10)``: its cost
    grows with the groups, so every sample is taken on the full round.
    An in-memory aggregator fed the same batches is the reference.
    """

    name = "ingest_durable"
    KEYS = 10_000
    QUERIES_PER_BATCH = 2
    RESTARTS = 3

    def generate(self) -> None:
        self.rows = self.sized(2048, 256, 512)
        keys = self.sized(self.KEYS, 500, 500)
        self.per_round = self.sized(10, 10, 4)
        self.rounds = self.count(0.5, 5)
        batches = self.rounds * self.per_round
        zipf = ZipfKeys(self.rng, keys)
        self.pool = BatchPool([
            (zipf.draw(self.rows).astype(np.int64), random_items(self.rng, self.rows))
            for _ in range(BatchPool.pool_size(batches, self.rows))
        ])
        unseen = unseen_mask(batches * self.QUERIES_PER_BATCH).reshape(batches, -1)
        self.point_keys = []
        for number in range(self.rounds):
            sizes = np.zeros(keys, dtype=np.int64)
            for index in range(number * self.per_round, (number + 1) * self.per_round):
                sizes += np.bincount(self.pool.get(index)[0], minlength=keys)
                written = np.flatnonzero(sizes)
                by_size = written[np.argsort(sizes[written], kind="stable")]
                picks = by_size[(strata(self.rng, self.QUERIES_PER_BATCH) * len(by_size)).astype(int)]
                self.point_keys.append(np.where(unseen[index], picks + keys, picks).tolist())

    def reopen(self, root: pathlib.Path, key):
        cluster = ShardedStore.open(root, fsync=True)
        return cluster, executor.execute(point_plan(key), cluster).rows

    def measure(self, clock: OpClock) -> dict:
        rows = wal_bytes = 0
        for number in range(self.rounds):
            root = self.directory / f"round-{number}"
            cluster = ShardedStore.open(root, shards=2, t=T, d=D, p=P, fsync=True)
            reference = DistinctCountAggregator(T, D, P)
            for batch in range(self.per_round):
                index = number * self.per_round + batch
                groups, items = self.pool.get(index)
                clock.run("ingest", cluster.add_batch, groups, items)
                reference.add_batch(groups, items)
                for key in self.point_keys[index]:
                    self.point_query(clock, cluster, key, sketch_estimate(reference.group_sketch(key)))
            expected = reference.estimates()
            self.check_top(number, clock.run("top", cluster.top, 10), expected)
            estimates = clock.run("estimate_all", cluster.estimates)
            self.expect(estimates == expected,
                        f"round {number}: estimates() disagree with the reference")
            state = reference.to_bytes()
            self.expect(cluster.to_aggregator().to_bytes() == state,
                        f"round {number}: cluster state differs from an in-memory "
                        "aggregator fed the same batches")
            rows += self.per_round * self.rows
            wal_bytes += sum(shard.wal_bytes for shard in cluster.shard_stores)
            cluster.close()
            key = self.point_keys[index][0]
            for restart in range(self.RESTARTS):
                cluster, found = clock.run("recover", self.reopen, root, key)
                self.expect(cluster.to_aggregator().to_bytes() == state,
                            f"round {number}, reopen {restart}: state changed")
                self.check_answer(key, answer_value(found), sketch_estimate(reference.group_sketch(key)))
                self.check_top(number, clock.run("top", cluster.top, 10), expected)
                cluster.close()
            shutil.rmtree(root)
        return {"rows": rows, "wal_bytes": wal_bytes}

    def check_top(self, number: int, top, expected: dict) -> None:
        self.expect(is_top(top, expected), f"round {number}: top(10) disagrees with the reference")


class SpillHighCard(Workload):
    """External GROUP BY over ~2 rows per group, plus ten heavy groups.

    Each round spills its batches into a fresh directory, closes it, then
    restarts ``RESTARTS`` times — attach to the directory read-only and
    answer one point query — each followed by point queries. After every
    ``TOP_EVERY``-th restart comes ``top(10)``, the partition merge: two
    merges per round give its median twice the samples of one, and the
    round cannot shrink, or the heavy groups would no longer densify.
    """

    name = "spill_highcard"
    HEAVY = 10
    PARTITIONS = 64
    RESTARTS = 6
    QUERIES_PER_RESTART = 2
    TOP_EVERY = 3

    def generate(self) -> None:
        self.rows = self.sized(2048, 2048, 256)
        self.per_round = self.sized(12, 12, 2)
        self.rounds = self.count(0.65, 2)
        self.light = max(self.HEAVY, int(0.9 * self.rows * self.per_round / 2))
        batches = []
        for _ in range(self.rounds * self.per_round):
            heavy = self.rng.random(self.rows) < 0.1
            groups = np.where(
                heavy,
                self.rng.integers(0, self.HEAVY, self.rows),
                self.HEAVY + self.rng.integers(0, self.light, self.rows),
            ).astype(np.int64)
            batches.append((groups, random_items(self.rng, self.rows)))
        self.pool = BatchPool(batches)
        domain = self.HEAVY + self.light
        queries = self.rounds * self.RESTARTS * self.QUERIES_PER_RESTART
        self.point_keys = (
            self.rng.integers(0, domain, queries) + np.where(unseen_mask(queries), domain, 0)
        ).tolist()

    @staticmethod
    def attach(directory: pathlib.Path, key):
        source = SpilledGroupBy.attach(directory)
        return source, executor.execute(point_plan(key), source).rows

    def measure(self, clock: OpClock) -> dict:
        front = DistinctCountAggregator(T, D, P)
        rows = spill_bytes = 0
        keys = iter(self.point_keys)
        for number in range(self.rounds):
            directory = self.directory / f"round-{number}"
            spill = SpilledGroupBy(directory, T, D, P, partitions=self.PARTITIONS)
            first = number * self.per_round
            for index in range(first, first + self.per_round):
                groups, items = self.pool.get(index)
                clock.run("ingest", front.add_batch, groups, items, spill=spill)
            spill.close()
            rows += self.per_round * self.rows
            spill_bytes += sum(
                path.stat().st_size for paths in spill_files(directory).values() for path in paths
            )
            groups, items = self.pool.concatenated(first, first + self.per_round)

            def expected(key) -> float:
                members = items[groups == key]
                if not len(members):
                    return 0.0
                return SparseExaLogLog(T, D, P).add_hashes(hash_items(members)).estimate()

            for restart in range(self.RESTARTS):
                block = [next(keys) for _ in range(self.QUERIES_PER_RESTART)]
                source, found = clock.run("recover", self.attach, directory, block[0])
                self.check_answer(block[0], answer_value(found), expected(block[0]))
                if restart % self.TOP_EVERY == 0:
                    top = clock.run("top", source.top, 10)
                    self.check_top(number, top, groups, items)
                for key in block:
                    self.point_query(clock, source, key, expected(key))
            shutil.rmtree(directory)
        return {"rows": rows, "spill_bytes": spill_bytes}

    def check_top(self, number: int, top, groups: np.ndarray, items: np.ndarray) -> None:
        heavy_keys = {DistinctCountAggregator._group_key(g) for g in range(self.HEAVY)}
        self.expect({key for key, _ in top} == heavy_keys,
                    f"round {number}: top(10) is not the ten heavy groups")
        for key, estimate in top:
            group = int.from_bytes(key, "little", signed=True)
            exact = len(np.unique(items[groups == group]))
            self.expect(within_error(estimate, exact),
                        f"round {number}, heavy group {group}: estimate {estimate:.1f} "
                        f"vs exact {exact}")

    def extra_diagnostics(self, clock: OpClock, rows: int) -> dict:
        return {"merge_rows_per_s": self.per_round * self.rows / median(clock.samples("top"))}


class RecoverServe(Workload):
    """Recovery, follower catch-up and reads beside writes on a live cluster.

    Each round populates a fresh 2-shard cluster, closes it and restarts
    ``RESTARTS`` times (reopen with WAL replay, answer one point query),
    ships the WAL into empty followers, opens a reader and runs the query
    mix — a writer batch and a reader ``refresh()`` every
    ``REFRESH_EVERY`` queries — and ends with ``estimate all``.
    """

    name = "recover_serve"
    KEYS = 20_000
    REFRESH_EVERY = 15
    SCAN_EVERY = 4
    TOP_EVERY = 10
    RESTARTS = 2

    def generate(self) -> None:
        self.rows = self.sized(1024, 64, 64)
        keys = self.sized(self.KEYS, 400, 400)
        self.populate = self.sized(20, 20, 2)
        queries = self.sized(90, 60, self.REFRESH_EVERY)
        self.rounds = self.count(0.45, 5)
        self.per_round = self.populate + queries // self.REFRESH_EVERY
        self.names = np.array([f"u{i:06d}" for i in range(keys)], dtype=object)
        zipf = ZipfKeys(self.rng, keys)
        self.pool = BatchPool([
            (self.names[zipf.draw(self.rows)], random_items(self.rng, self.rows))
            for _ in range(self.rounds * self.per_round)
        ])
        prefixes = max(1, keys // 100)
        kinds = ["top" if number % self.TOP_EVERY == 0
                 else "scan_query" if number % self.SCAN_EVERY == 0
                 else "point_query"
                 for number in range(1, queries + 1)]
        lookups = kinds.count("point_query")
        unseen = unseen_mask(lookups)
        self.queries = []
        for _ in range(self.rounds):
            points = iter(zip(unseen, self.names[zipf.draw_strata(lookups)]))
            mix = []
            for kind in kinds:
                if kind == "top":
                    mix.append((kind, None))
                elif kind == "scan_query":
                    prefix = self.names[self.rng.integers(0, prefixes) * 100][:5]
                    mix.append((kind, f"top 10 where key startswith '{prefix}'"))
                else:
                    never, name = next(points)
                    if never:
                        name = f"u9{self.rng.integers(0, keys):05d}"
                    mix.append((kind, f"estimate '{name}'"))
            self.queries.append(mix)

    @staticmethod
    def reopen(root: pathlib.Path, text: str):
        cluster = ShardedStore.open(root)
        return cluster, query(cluster, text).rows

    def measure(self, clock: OpClock) -> dict:
        rows = wal_bytes = 0
        self.shipped = 0
        for number in range(self.rounds):
            root = self.directory / f"round-{number}"
            cluster = ShardedStore.open(root, shards=2, t=T, d=D, p=P)
            batches = iter(range(number * self.per_round, (number + 1) * self.per_round))
            for _ in range(self.populate):
                clock.run("ingest", cluster.add_batch, *self.pool.get(next(batches)))
            state = digest(cluster)
            probe = next(text for kind, text in self.queries[number] if kind == "point_query")
            first = query(cluster, probe).rows
            cluster.close()
            for restart in range(self.RESTARTS):
                if restart:
                    cluster.close()
                cluster, found = clock.run("recover", self.reopen, root, probe)
                self.expect(digest(cluster) == state, f"round {number}, reopen {restart}: digest changed")
                self.expect(found == first, f"round {number}, reopen {restart}: answered differently")
            shipped = clock.run("catchup", cluster.sync_replicas)
            self.shipped += sum(result.records_shipped for result in shipped)
            self.expect(self.replicas_match(root, cluster),
                        f"round {number}: a follower differs from its leader after catch-up")
            reader = clock.run("reader_open", ClusterSource.open, root, reader=True)
            try:
                for count, (kind, text) in enumerate(self.queries[number], start=1):
                    if kind == "top":
                        answer = clock.run(kind, reader.top, 10)
                    else:
                        answer = clock.run(kind, query, reader, text).rows
                    self.compare(kind, text, answer, reader, cluster)
                    if count % self.REFRESH_EVERY == 0:
                        clock.run("ingest", cluster.add_batch, *self.pool.get(next(batches)))
                        clock.run("refresh", reader.refresh)
                every = clock.run("estimate_all", query, reader, "estimate all").rows
                self.expect(every == tuple(sorted(cluster.estimates().items())),
                            f"round {number}: estimate all differs from the writer")
            finally:
                reader.close()
            rows += self.per_round * self.rows
            wal_bytes += sum(shard.wal_bytes for shard in cluster.shard_stores)
            cluster.close()
            shutil.rmtree(root)
        return {"rows": rows, "wal_bytes": wal_bytes}

    def extra_diagnostics(self, clock: OpClock, rows: int) -> dict:
        return {"catchup_records_per_s": self.shipped / sum(clock.samples("catchup"))}

    @staticmethod
    def replicas_match(root: pathlib.Path, cluster: ShardedStore) -> bool:
        for index, shard in enumerate(cluster.shard_stores):
            with FollowerStore.open(replica_path(root, index)) as follower:
                if follower.aggregator.to_bytes() != shard.aggregator.to_bytes():
                    return False
        return True

    def compare(self, kind: str, text, rows, reader: ClusterSource, cluster: ShardedStore) -> None:
        """Check one reader answer against the writer at the same LSN."""
        horizons = [source.durable_lsn for source in reader.shard_sources]
        self.expect(horizons == [shard.durable_lsn for shard in cluster.shard_stores],
                    f"{text}: reader horizon {horizons} behind the writer")
        if kind == "top":
            expected = cluster.top(10)
        elif kind == "point_query":
            expected = cluster.estimate(text.split("'")[1])
            rows = answer_value(rows)
        else:
            expected = query(cluster, text).rows
        self.expect(rows == expected, f"{kind} {text}: reader {rows} != writer {expected}")


WORKLOAD_CLASSES = {cls.name: cls for cls in (IngestMem, IngestDurable, SpillHighCard, RecoverServe)}
