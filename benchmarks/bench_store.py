"""Durable-store benchmarks: WAL ingest, spill GROUP BY, the durable paths.

Three sections, results to ``BENCH_store.json`` and a text table under
``benchmarks/output/``:

1. **WAL ingest** — :class:`repro.store.SketchStore` append throughput
   (the durable path pays one log write per batch) plus recovery time of
   the resulting WAL.
2. **spill GROUP BY at many groups** — :class:`repro.store.SpilledGroupBy`
   end-to-end (spill + partition merge, streamed estimates) at
   ``SPILL_GROUPS`` groups with a **bounded-RSS assertion**: peak RSS may
   grow by at most ``RSS_BOUND_MB`` while the modelled in-memory
   aggregator footprint for the same group count is reported alongside —
   the point is that disk, not RAM, absorbs the group count.
3. **durable paths** — ``DURABLE_N`` rows in 2048-row Zipf(1.1) batches
   over 10^4 int keys through a 2-shard ``ShardedStore.add_batch``
   (``fsync=False``: the system benchmark owns fsync), the refresh of
   reader views opened before the write, its reopen with WAL replay,
   ``sync_replicas()`` into empty followers, a 64-partition spill write
   and the spill's ``top(10)``. Each rate is divided by one
   ``ExaLogLog.add_hashes`` of the same rows' hashes measured in the
   same run, so the ratios survive a host change; the rows have one
   size in quick and full mode, and ``perf_smoke.py`` compares them.
   Every path is checked bit-identical to one in-memory ``add_batch``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.cluster.meta import replica_path
from repro.core.exaloglog import ExaLogLog
from repro.experiments.common import format_table
from repro.hashing.batch import hash_items
from repro.store import FollowerStore, SketchStore, SpilledGroupBy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_store.json"
OUTPUT_TXT = pathlib.Path(__file__).resolve().parent / "output" / "bench_store.txt"

#: Timed repetitions (best-of); first calls pay allocator warm-up.
ROUNDS = 3

#: Peak-RSS growth allowed for the spill GROUP BY section.
RSS_BOUND_MB = 400

#: The durable-path rows: rows, rows per batch, Zipf(DURABLE_EXPONENT)
#: integer keys; one size shared by quick and full mode.
DURABLE_N = 102_400
DURABLE_BATCH = 2048
DURABLE_KEYS = 10_000
DURABLE_EXPONENT = 1.1


def _rate(elapsed: float, count: int) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def _best_of(build, rounds: int = ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        candidate = build()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, candidate
    return best, result


def _max_rss_mb() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1024.0


def bench_wal_ingest(n: int, batch: int, workdir: pathlib.Path) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(11))
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)

    directory = workdir / "walbench"

    def ingest():
        import shutil

        if directory.exists():
            shutil.rmtree(directory)
        with SketchStore.open(directory, p=8) as store:
            for start in range(0, n, batch):
                store.append_hashes("demo", hashes[start : start + batch])
            return store.wal_bytes

    ingest_seconds, wal_bytes = _best_of(ingest)

    recover_seconds, recovered = _best_of(lambda: SketchStore.open(directory))
    recovered.close()
    return [
        {
            "section": "wal_ingest",
            "mode": f"append_hashes (batch={batch})",
            "n": n,
            "items_per_s": _rate(ingest_seconds, n),
            "wal_bytes": wal_bytes,
        },
        {
            "section": "wal_ingest",
            "mode": "open() with WAL replay",
            "n": n,
            "items_per_s": _rate(recover_seconds, n),
            "recover_seconds": recover_seconds,
        },
    ]


def bench_durable_paths(workdir: pathlib.Path) -> list[dict]:
    """The durable write, replay, catch-up and spill paths, relative to one fold.

    Each row times only its call — the ``add_batch`` loop, the
    ``refresh()`` of readers opened on the empty cluster (they tail all
    of the write's records), the reopen, ``sync_replicas()``, the
    spill's ``add_batch`` loop, ``top(10)`` —
    and, right before it, the best of ``ROUNDS`` one-sketch
    ``add_hashes`` calls over the same rows' hashes, so a slow spell of
    the host scales both sides of a ratio. Each row keeps the round
    with the best ratio, of ``ROUNDS``; opening fresh directories and
    closing stay outside the timer.
    """
    rng = np.random.Generator(np.random.PCG64(0x5704))
    weights = np.arange(1, DURABLE_KEYS + 1, dtype=np.float64) ** -DURABLE_EXPONENT
    ranks = np.searchsorted(np.cumsum(weights) / weights.sum(), rng.random(DURABLE_N))
    groups = rng.permutation(DURABLE_KEYS)[np.minimum(ranks, DURABLE_KEYS - 1)]
    items = rng.integers(0, 1 << 62, size=DURABLE_N, dtype=np.int64)
    batches = [
        (groups[start : start + DURABLE_BATCH], items[start : start + DURABLE_BATCH])
        for start in range(0, DURABLE_N, DURABLE_BATCH)
    ]
    reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
    state = reference.to_bytes()
    hashes = hash_items(items)
    root, spill_dir = workdir / "cluster", workdir / "spill"
    best = {}  # mode -> (seconds, one-sketch seconds) of its best-ratio round

    def timed(mode: str, call):
        single, _ = _best_of(lambda: ExaLogLog(2, 20, 8).add_hashes(hashes))
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        if mode not in best or single / elapsed > best[mode][1] / best[mode][0]:
            best[mode] = (elapsed, single)
        return result

    def ingest(target) -> None:
        for batch_groups, batch_items in batches:
            target.add_batch(batch_groups, batch_items)

    for _ in range(ROUNDS):
        shutil.rmtree(root, ignore_errors=True)
        with ShardedStore.open(root, shards=2, p=8) as cluster:
            with ClusterSource.open(root, reader=True) as readers:
                timed("cluster add_batch (2 shards, fsync=False)", lambda: ingest(cluster))
                written = cluster.to_aggregator().to_bytes()
                timed("cluster reader refresh() over the write", readers.refresh)
                refreshed = DistinctCountAggregator(2, 20, 8)
                for reader in readers.shard_sources:
                    refreshed.merge_inplace(reader.aggregator)
        reopened = timed("cluster open() with WAL replay", lambda: ShardedStore.open(root))
        with reopened:
            replayed = reopened.to_aggregator().to_bytes()
            for index in range(2):
                shutil.rmtree(replica_path(root, index), ignore_errors=True)
            timed("sync_replicas() into empty followers", reopened.sync_replicas)
        replicas = DistinctCountAggregator(2, 20, 8)
        for index in range(2):
            with FollowerStore.open(replica_path(root, index)) as follower:
                replicas.merge_inplace(follower.aggregator)
        shutil.rmtree(spill_dir, ignore_errors=True)
        with SpilledGroupBy(spill_dir, p=8, partitions=64) as spill:
            timed("spill write (64 partitions)", lambda: ingest(spill))
            spilled = spill.to_aggregator().to_bytes()
        attached = SpilledGroupBy.attach(spill_dir)
        top = timed("spill top(10)", lambda: attached.top(10))
        # Every path reaches the state of one in-memory add_batch.
        if not (
            written == refreshed.to_bytes() == replayed == replicas.to_bytes()
            == spilled == state
        ):
            raise AssertionError("a durable path diverged from one add_batch")
        if top != reference.top(10):
            raise AssertionError("spill top(10) diverged from add_batch")
    return [
        {
            "section": "durable_paths",
            "mode": f"{mode} / ExaLogLog add_hashes",
            "n": DURABLE_N,
            "items_per_s": _rate(elapsed, DURABLE_N),
            "single_items_per_s": _rate(single, DURABLE_N),
            "speedup": single / elapsed,
        }
        for mode, (elapsed, single) in best.items()
    ]


def bench_spill_groupby(
    group_count: int, items_per_group: int, workdir: pathlib.Path
) -> list[dict]:
    rss_before = _max_rss_mb()
    total = group_count * items_per_group
    chunk = 1 << 20
    spill = SpilledGroupBy(workdir / "spillbench", p=8, partitions=64)
    rng = np.random.Generator(np.random.PCG64(13))

    start = time.perf_counter()
    produced = 0
    while produced < total:
        size = min(chunk, total - produced)
        groups = rng.integers(0, group_count, size=size).astype(np.int64)
        items = rng.integers(0, 1 << 62, size=size, dtype=np.int64)
        spill.add_batch(groups, items)
        produced += size
    spill_seconds = time.perf_counter() - start

    start = time.perf_counter()
    observed_groups = 0
    checksum = 0.0
    for _, estimate in spill.iter_estimates():
        observed_groups += 1
        checksum += estimate
    merge_seconds = time.perf_counter() - start
    spill.cleanup()

    rss_after = _max_rss_mb()
    rss_delta = rss_after - rss_before
    # What the all-in-RAM aggregator would hold for the same groups —
    # modelled sketch payloads only (the library's JVM-style memory model;
    # Python object overhead is several times larger, and materialising a
    # million sketch objects is exactly the blow-up this plan avoids).
    from repro.baselines.base import OBJECT_OVERHEAD_BYTES

    modelled_sketch_payload_mb = (
        group_count * (OBJECT_OVERHEAD_BYTES + 80 + items_per_group * 4) / 1024.0 / 1024.0
    )
    bounded = rss_delta <= RSS_BOUND_MB
    return [
        {
            "section": "spill_groupby",
            "mode": f"spill write ({spill.partitions} partitions)",
            "n": total,
            "groups": group_count,
            "items_per_s": _rate(spill_seconds, total),
        },
        {
            "section": "spill_groupby",
            "mode": "partition merge + streamed estimates",
            "n": total,
            "groups": observed_groups,
            "items_per_s": _rate(merge_seconds, total),
            "estimate_checksum": round(checksum, 1),
        },
        {
            "section": "spill_groupby",
            "mode": "peak-RSS growth",
            "n": total,
            "groups": group_count,
            "rss_delta_mb": round(rss_delta, 1),
            "rss_bound_mb": RSS_BOUND_MB,
            "modelled_sketch_payload_mb": round(modelled_sketch_payload_mb, 1),
            "bounded": bounded,
        },
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized runs (smaller n and groups)"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_JSON, help="JSON output path"
    )
    arguments = parser.parse_args(argv)

    wal_n = 100_000 if arguments.quick else 1_000_000
    spill_groups = 100_000 if arguments.quick else 1_000_000
    items_per_group = 2

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_store_") as workdir:
        workdir = pathlib.Path(workdir)
        rows += bench_wal_ingest(wal_n, 1 << 16, workdir)
        rows += bench_spill_groupby(spill_groups, items_per_group, workdir)
        rows += bench_durable_paths(workdir)

    text = "== Durable store: WAL ingest / spill GROUP BY ==\n"
    text += format_table(rows)
    print("\n" + text)
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(text + "\n")
    arguments.output.write_text(
        json.dumps({"quick": arguments.quick, "results": rows}, indent=2) + "\n"
    )
    print(f"\nwrote {arguments.output} and {OUTPUT_TXT}")

    rss_row = next(row for row in rows if row["mode"] == "peak-RSS growth")
    if not rss_row["bounded"]:
        print(
            f"BOUNDED-RSS FAILURE: spill GROUP BY grew peak RSS by "
            f"{rss_row['rss_delta_mb']} MB (bound {RSS_BOUND_MB} MB)",
            file=sys.stderr,
        )
        return 1
    print(
        f"bounded-RSS gate ok: +{rss_row['rss_delta_mb']} MB at "
        f"{rss_row['groups']} groups (bound {RSS_BOUND_MB} MB; modelled "
        f"in-memory sketch payloads alone: {rss_row['modelled_sketch_payload_mb']} MB)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
