"""Parallel ingest throughput: scalar vs bulk vs process-pool fan-out.

Measures ExaLogLog ingestion at ``n in {1e6, 1e7}`` (quick mode:
``{6e5}``, still beyond two ``BULK_CHUNK``\\ s so the pool genuinely
spins up) over precomputed 64-bit hashes four ways: the scalar
``add_hash`` loop (capped, rate is flat in n), the single-process bulk
``add_hashes`` fold, and the persistent-pool fan-out at 1/2/4 workers
measured **cold** (a fresh :class:`~repro.parallel.PersistentIngestPool`
spun up and shut down inside every timed round — what the old per-call
pools always paid) and **warm** (the module-level pool with workers
already alive, the steady-state path of repeated ``workers=`` calls) —
plus the in-process GROUP BY (``DistinctCountAggregator.add_batch``).
Results go to ``BENCH_parallel_ingest.json`` and a text table under
``benchmarks/output/``.

The headline check: with >= 4 physical cores, *warm* parallel ingest at
4 workers must be >= 2x the single-process bulk fold at n = 1e7. On
smaller machines the fan-out cannot beat the fold (there is nothing to
fan out to), so the gate reports the core count and is skipped — the
bit-identity check against the bulk state always runs.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_ingest.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import DistinctCountAggregator
from repro.core.exaloglog import ExaLogLog
from repro.experiments.common import format_table
from repro.parallel import (
    PersistentIngestPool,
    get_pool,
    parallel_exaloglog_registers,
    preferred_start_method,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_parallel_ingest.json"
OUTPUT_TXT = (
    pathlib.Path(__file__).resolve().parent / "output" / "bench_parallel_ingest.txt"
)

#: Upper bound on sequentially timed insertions (rate is flat in n).
SCALAR_CAP = 500_000

#: Timed repetitions (best-of); first calls pay allocator/pool warm-up.
ROUNDS = 3

WORKER_COUNTS = (1, 2, 4)

#: Group count for the GROUP BY section.
AGGREGATE_GROUPS = 256


def _rate(elapsed: float, count: int) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def _best_of(build, rounds: int = ROUNDS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        candidate = build()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, candidate
    return best, result


def bench_exaloglog(n: int, hashes: np.ndarray, workers: tuple[int, ...]) -> list[dict]:
    scalar_n = min(n, SCALAR_CAP)
    sketch = ExaLogLog(2, 20, 8)
    add_hash = sketch.add_hash
    start = time.perf_counter()
    for hash_value in hashes[:scalar_n].tolist():
        add_hash(hash_value)
    scalar_seconds = time.perf_counter() - start
    scalar_rate = _rate(scalar_seconds, scalar_n)

    bulk_seconds, bulk_sketch = _best_of(
        lambda: ExaLogLog(2, 20, 8).add_hashes(hashes)
    )
    bulk_rate = _rate(bulk_seconds, n)
    rows = [
        {
            "section": "exaloglog",
            "mode": "scalar add_hash loop",
            "n": n,
            "measured_n": scalar_n,
            "items_per_s": scalar_rate,
            "speedup_vs_bulk": scalar_rate / bulk_rate,
        },
        {
            "section": "exaloglog",
            "mode": "bulk add_hashes (1 process)",
            "n": n,
            "measured_n": n,
            "items_per_s": bulk_rate,
            "speedup_vs_bulk": 1.0,
        },
    ]
    params = bulk_sketch.params
    bulk_registers = list(bulk_sketch._registers)

    def cold_fold(count: int) -> np.ndarray:
        # Every timed round pays pool spawn + transport setup + teardown:
        # the cost profile of the pre-persistent-pool per-call design.
        pool = PersistentIngestPool(workers=count, idle_timeout=0.0)
        try:
            return parallel_exaloglog_registers(
                hashes, params, workers=count, pool=pool
            )
        finally:
            pool.shutdown()

    for count in workers:
        cold_seconds, cold_registers = _best_of(lambda: cold_fold(count))
        if cold_registers.tolist() != bulk_registers:
            raise AssertionError(
                f"cold-pool state diverged from bulk state at workers={count}"
            )
        cold_rate = _rate(cold_seconds, n)
        rows.append(
            {
                "section": "exaloglog",
                "mode": f"parallel cold-pool ({count} workers)",
                "n": n,
                "measured_n": n,
                "items_per_s": cold_rate,
                "speedup_vs_bulk": cold_rate / bulk_rate,
            }
        )

        # Warm path: the module-level pool's workers are already alive, so
        # each round is one segment memcpy + dispatch — the steady state.
        get_pool().warm(count)
        seconds, parallel_sketch = _best_of(
            lambda: ExaLogLog(2, 20, 8).add_hashes(hashes, workers=count)
        )
        # The contract the speedup rests on: identical final state.
        if parallel_sketch.to_bytes() != bulk_sketch.to_bytes():
            raise AssertionError(
                f"parallel state diverged from bulk state at workers={count}"
            )
        rate = _rate(seconds, n)
        rows.append(
            {
                "section": "exaloglog",
                "mode": f"parallel warm-pool ({count} workers)",
                "n": n,
                "measured_n": n,
                "items_per_s": rate,
                "speedup_vs_bulk": rate / bulk_rate,
            }
        )
    return rows


def bench_aggregate(n: int, hashes: np.ndarray) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(n))
    groups = rng.integers(0, AGGREGATE_GROUPS, size=n).astype(np.int64)
    items = hashes.view(np.int64)

    bulk_seconds, _ = _best_of(
        lambda: DistinctCountAggregator(p=8).add_batch(groups, items)
    )
    return [
        {
            "section": "group-by",
            "mode": "bulk add_batch (1 process)",
            "n": n,
            "measured_n": n,
            "items_per_s": _rate(bulk_seconds, n),
            "speedup_vs_bulk": 1.0,
        }
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI mode: n = 6e5, workers {1, 2}"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_JSON, help="JSON output path"
    )
    args = parser.parse_args(argv)

    # Quick mode still exceeds two BULK_CHUNKs so the pool genuinely spins up.
    sizes = [600_000] if args.quick else [1_000_000, 10_000_000]
    workers = (1, 2) if args.quick else WORKER_COUNTS
    cpu_count = multiprocessing.cpu_count()
    rng = np.random.Generator(np.random.PCG64(0x9A7A11E1))

    rows: list[dict] = []
    for n in sizes:
        hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        for row in bench_exaloglog(n, hashes, workers):
            rows.append(row)
            print(
                f"{row['mode']:34s} n={n:>10,d}"
                f"  {row['items_per_s']:>14,.0f}/s"
                f"  vs bulk {row['speedup_vs_bulk']:>6.2f}x"
            )
        for row in bench_aggregate(n, hashes):
            rows.append(row)
            print(
                f"{row['mode']:34s} n={n:>10,d}"
                f"  {row['items_per_s']:>14,.0f}/s"
                f"  vs bulk {row['speedup_vs_bulk']:>6.2f}x"
            )

    headline = [
        row["speedup_vs_bulk"]
        for row in rows
        if row["section"] == "exaloglog"
        and row["n"] == 10_000_000
        and row["mode"].startswith("parallel warm-pool")
        and "4 workers" in row["mode"]
    ]
    payload = {
        "quick": args.quick,
        "cpu_count": cpu_count,
        "start_method": preferred_start_method(),
        "sizes": sizes,
        "workers": list(workers),
        "results": rows,
        "headline_parallel_4w_speedup_at_1e7": headline[0] if headline else None,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(
        "== parallel ingest: scalar vs bulk vs process-pool fan-out ==\n"
        f"(cpu_count={cpu_count}, start_method={preferred_start_method()})\n"
        + format_table(
            rows, ["section", "mode", "n", "items_per_s", "speedup_vs_bulk"]
        )
        + "\n"
    )
    print(f"\nwrote {args.output} and {OUTPUT_TXT}")

    # The acceptance gate: >= 2x over the single-process bulk fold at
    # n = 1e7 with 4 workers — only meaningful with >= 4 cores to fan to.
    if args.quick:
        print("OK: quick mode (equivalence checked, no speedup gate)")
        return 0
    if cpu_count < 4:
        print(
            f"SKIP: speedup gate needs >= 4 cores, this machine has {cpu_count} "
            "(bit-identity to the bulk state was still verified)"
        )
        return 0
    if not headline or headline[0] < 2.0:
        measured = headline[0] if headline else float("nan")
        print(f"FAIL: parallel(4 workers) speedup {measured:.2f}x < 2x at n = 1e7")
        return 1
    print(f"OK: parallel(4 workers) speedup {headline[0]:.2f}x >= 2x at n = 1e7")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
