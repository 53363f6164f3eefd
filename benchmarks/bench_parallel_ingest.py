"""Parallel ingest throughput: scalar vs bulk vs thread fan-out.

Measures ExaLogLog ingestion at ``n in {1e6, 1e7}`` (quick mode:
``{6e5}``, still beyond two ``BULK_CHUNK``\\ s so the fold genuinely
fans out) over precomputed 64-bit hashes: the scalar ``add_hash`` loop
(capped, rate is flat in n), the single-thread bulk ``add_hashes`` fold,
and ``add_hashes(workers=)`` at 1/2/4 workers — plus the in-process
GROUP BY (``DistinctCountAggregator.add_batch``). A second section times
the fold alone, ``ParallelBulkIngestor.registers`` against
``exaloglog_registers``, on its own seed. Results go to
``BENCH_parallel_ingest.json`` and a text table under
``benchmarks/output/``.

The gates, checked in full mode on machines with the cores each needs:

* the headline: ``add_hashes(workers=4)`` must be >= 2x the
  single-thread ``add_hashes`` at n = 1e7 (>= 4 cores);
* the fold floors (:data:`FLOORS`), best of :data:`FLOOR_ROUNDS` at
  n = 1e7: 1 worker >= 0.95x (>= 4 cores; the fan-out may not *cost*
  anything), 2 workers >= 1.3x (>= 2 cores), 4 workers >= 1.8x
  (>= 4 cores).

On smaller machines the fan-out has nothing to fan out to, so those
gates report SKIP; the bit-identity check of every fan-out against the
bulk state always runs.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_ingest.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import DistinctCountAggregator
from repro.backends.bulk import exaloglog_registers
from repro.core.exaloglog import ExaLogLog
from repro.core.params import ExaLogLogParams
from repro.experiments.common import format_table
from repro.parallel import ParallelBulkIngestor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_parallel_ingest.json"
OUTPUT_TXT = (
    pathlib.Path(__file__).resolve().parent / "output" / "bench_parallel_ingest.txt"
)

#: Upper bound on sequentially timed insertions (rate is flat in n).
SCALAR_CAP = 500_000

#: Timed repetitions (best-of); first calls pay allocator warm-up.
ROUNDS = 3

WORKER_COUNTS = (1, 2, 4)

#: Group count for the GROUP BY section.
AGGREGATE_GROUPS = 256

PARAMS = ExaLogLogParams(2, 20, 8)

#: Fold-level floors: (workers, floor, cores the floor needs). Each is
#: ``ParallelBulkIngestor.registers`` ÷ ``exaloglog_registers``, best of
#: FLOOR_ROUNDS over FLOOR_N hashes drawn from FLOOR_SEED.
FLOORS = ((1, 0.95, 4), (2, 1.3, 2), (4, 1.8, 4))
FLOOR_N = 10_000_000
FLOOR_ROUNDS = 4
FLOOR_SEED = 0x9001_4E05E


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
            "mode": "bulk add_hashes (1 thread)",
            "n": n,
            "measured_n": n,
            "items_per_s": bulk_rate,
            "speedup_vs_bulk": 1.0,
        },
    ]
    for count in workers:
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
                "mode": f"parallel fan-out ({count} workers)",
                "n": n,
                "measured_n": n,
                "items_per_s": rate,
                "speedup_vs_bulk": rate / bulk_rate,
            }
        )
    return rows


def bench_fold(n: int, workers: tuple[int, ...]) -> list[dict]:
    """The floors' method: fan-out fold ÷ bulk fold, best of FLOOR_ROUNDS."""
    rng = np.random.Generator(np.random.PCG64(FLOOR_SEED))
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    exaloglog_registers(hashes[: n // 100], PARAMS)  # warm ufuncs/allocator
    bulk_seconds, expected = _best_of(
        lambda: exaloglog_registers(hashes, PARAMS), FLOOR_ROUNDS
    )
    bulk_rate = _rate(bulk_seconds, n)
    rows = [
        {
            "section": "fold",
            "mode": "bulk fold (1 thread)",
            "n": n,
            "measured_n": n,
            "items_per_s": bulk_rate,
            "speedup_vs_bulk": 1.0,
        }
    ]
    for count in workers:
        ingestor = ParallelBulkIngestor(PARAMS, count)
        seconds, registers = _best_of(lambda: ingestor.registers(hashes), FLOOR_ROUNDS)
        if not np.array_equal(registers, expected):
            raise AssertionError(f"fan-out fold diverged at workers={count}")
        rate = _rate(seconds, n)
        rows.append(
            {
                "section": "fold",
                "mode": f"fold fan-out ({count} workers)",
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
            "mode": "bulk add_batch (1 thread)",
            "n": n,
            "measured_n": n,
            "items_per_s": _rate(bulk_seconds, n),
            "speedup_vs_bulk": 1.0,
        }
    ]


def _print_row(row: dict) -> None:
    print(
        f"{row['mode']:34s} n={row['n']:>10,d}"
        f"  {row['items_per_s']:>14,.0f}/s"
        f"  vs bulk {row['speedup_vs_bulk']:>6.2f}x"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI mode: n = 6e5, workers {1, 2}"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_JSON, help="JSON output path"
    )
    args = parser.parse_args(argv)

    # Quick mode still exceeds two BULK_CHUNKs so the fold genuinely fans out.
    sizes = [600_000] if args.quick else [1_000_000, 10_000_000]
    fold_n = 600_000 if args.quick else FLOOR_N
    workers = (1, 2) if args.quick else WORKER_COUNTS
    cpu_count = os.cpu_count() or 1
    rng = np.random.Generator(np.random.PCG64(0x9A7A11E1))

    rows: list[dict] = []
    for n in sizes:
        hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        rows.extend(bench_exaloglog(n, hashes, workers))
        rows.extend(bench_aggregate(n, hashes))
    del hashes
    rows.extend(bench_fold(fold_n, workers))
    for row in rows:
        _print_row(row)

    def speedup(section: str, n: int, count: int):
        matches = [
            row["speedup_vs_bulk"]
            for row in rows
            if row["section"] == section
            and row["n"] == n
            and row["mode"].endswith(f"fan-out ({count} workers)")
        ]
        return matches[0] if matches else None

    headline = speedup("exaloglog", 10_000_000, 4)
    floors = [
        (count, floor)
        for count, floor, cores in FLOORS
        if cpu_count >= cores and not args.quick
    ]
    payload = {
        "quick": args.quick,
        "cpu_count": cpu_count,
        "sizes": sizes,
        "workers": list(workers),
        "results": rows,
        "headline_parallel_4w_speedup_at_1e7": headline,
        "fold_speedups": {str(count): speedup("fold", fold_n, count) for count in workers},
        "fold_floors": {
            "n": fold_n,
            "floors": {str(count): floor for count, floor, _ in FLOORS},
            "evaluated": [count for count, _ in floors],
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(
        "== parallel ingest: scalar vs bulk vs thread fan-out ==\n"
        f"(cpu_count={cpu_count})\n"
        + format_table(
            rows, ["section", "mode", "n", "items_per_s", "speedup_vs_bulk"]
        )
        + "\n"
    )
    print(f"\nwrote {args.output} and {OUTPUT_TXT}")

    if args.quick:
        print("OK: quick mode (equivalence checked, no speedup gates)")
        return 0
    failed = False
    # The headline: >= 2x over the single-thread bulk fold at n = 1e7
    # with 4 workers — only meaningful with >= 4 cores to fan to.
    if cpu_count < 4:
        print(
            f"SKIP: the 4-worker headline needs >= 4 cores, this machine has "
            f"{cpu_count} (bit-identity to the bulk state was still verified)"
        )
    elif headline is None or headline < 2.0:
        failed = True
        measured = headline if headline is not None else float("nan")
        print(f"FAIL: parallel(4 workers) speedup {measured:.2f}x < 2x at n = 1e7")
    else:
        print(f"OK: parallel(4 workers) speedup {headline:.2f}x >= 2x at n = 1e7")
    for count, floor, cores in FLOORS:
        if cpu_count < cores:
            print(
                f"SKIP: the {count}-worker fold floor needs >= {cores} cores, "
                f"this machine has {cpu_count}"
            )
    for count, floor in floors:
        measured = speedup("fold", fold_n, count)
        status = "OK" if measured >= floor else "FAIL"
        failed |= status == "FAIL"
        print(f"{status}: fold fan-out @{count} workers {measured:.2f}x bulk (floor {floor}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
