"""Bulk-ingest throughput: scalar ``add_hash`` loop vs vectorised ``add_hashes``.

Measures items/sec per sketch at ``n in {1e4, 1e6, 1e7}`` (quick mode:
``{1e4, 1e5}``) over precomputed 64-bit hashes, plus the raw-item path
(``add_batch`` over a NumPy integer array, which includes vectorised
Murmur3 hashing). Results go to ``BENCH_bulk_ingest.json`` and a text
table under ``benchmarks/output/``.

Two relative rows gate grouped ingest: ``DistinctCountAggregator.add_batch``
items/sec divided by the single-sketch ``add_hashes`` rate at the same
``n``. The first feeds ``GROUPED_KEYS`` Zipf(1.1) integer groups in
``GROUPED_BATCH``-row batches; most of those groups stay in sparse token
mode, like the system benchmark's ``ingest_durable``. The second feeds
``DENSE_KEYS`` uniform integer groups in ``DENSE_BATCH``-row batches, the
shape of its ``ingest_mem``: every group is dense from the second batch,
so the batches fold stacked. Quick and full mode both record them at
``GROUPED_N`` and ``DENSE_N``, so ``perf_smoke.py`` compares them.

A third relative row guards the sliding-window counter's batch ingest:
``SlidingWindowDistinctCounter.add_hashes`` with per-item timestamps,
``WINDOWED_N`` hashes in ``WINDOWED_BATCH``-row batches over
``WINDOWED_BUCKETS`` buckets, the timestamps rising through
``WINDOWED_WINDOWS`` windows so that buckets are created and evicted;
against the single-sketch rate at the same ``n``, in both modes.

The headline check: ExaLogLog bulk ingestion must be >= 10x the scalar
loop at n = 1e6 (the PR's acceptance criterion). Scalar timing is capped
at ``SCALAR_CAP`` insertions per measurement (the loop rate is flat in n,
so the measured rate is reported alongside the capped count honestly as
``scalar_measured_n``).

Run directly::

    PYTHONPATH=src python benchmarks/bench_bulk_ingest.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import DistinctCountAggregator
from repro.baselines.hyperloglog import HyperLogLog
from repro.baselines.pcsa import PCSA
from repro.baselines.ultraloglog import UltraLogLog
from repro.core.exaloglog import ExaLogLog
from repro.core.sparse import SparseExaLogLog
from repro.experiments.common import format_table
from repro.windowed import SlidingWindowDistinctCounter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_bulk_ingest.json"
OUTPUT_TXT = pathlib.Path(__file__).resolve().parent / "output" / "bench_bulk_ingest.txt"

#: Upper bound on sequentially timed insertions (rate is flat in n).
SCALAR_CAP = 1_000_000

SKETCHES = [
    ("ExaLogLog(2,20,8)", lambda: ExaLogLog(2, 20, 8)),
    ("SparseExaLogLog(2,20,8)", lambda: SparseExaLogLog(2, 20, 8)),
    ("HyperLogLog(p=11)", lambda: HyperLogLog(11)),
    ("UltraLogLog(p=10)", lambda: UltraLogLog(10)),
    ("PCSA(p=10)", lambda: PCSA(10)),
]


#: Timed repetitions of the bulk call and of the scalar loop (best-of,
#: each after a warm-up): one cold bulk call is dominated by allocator page
#: faults, and one short scalar loop by whatever else the host is doing.
#: The single-sketch rows interleave the two sides' rounds, so one stall
#: of the host cannot cover all of one side's rounds and none of the other's.
BULK_ROUNDS = 3

#: The grouped-ingest row: rows, Zipf(GROUPED_EXPONENT) integer groups and
#: rows per add_batch call; one size shared by quick and full mode.
GROUPED_N = 102_400
GROUPED_KEYS = 10_000
GROUPED_EXPONENT = 1.1
GROUPED_BATCH = 2048

#: The dense grouped row: rows, uniform integer groups and rows per
#: add_batch call; one size shared by quick and full mode.
DENSE_N = 1 << 20
DENSE_KEYS = 64
DENSE_BATCH = 16_384

#: The windowed row: hashes, buckets per window, rows per add_hashes
#: call, and windows the timestamps rise through; one size shared by
#: quick and full mode.
WINDOWED_N = 1 << 20
WINDOWED_BUCKETS = 8
WINDOWED_BATCH = 16_384
WINDOWED_WINDOWS = 3


def _rate(elapsed: float, count: int) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def bench_sketch(name: str, factory, hashes: np.ndarray) -> dict:
    n = len(hashes)
    scalar_n = min(n, SCALAR_CAP)
    scalar_hashes = hashes[:scalar_n].tolist()

    warm = factory().add_hash
    for hash_value in scalar_hashes[:1000]:
        warm(hash_value)
    factory().add_hashes(hashes[: max(1, n // 100)])  # warm ufuncs/allocator
    scalar_seconds = bulk_seconds = float("inf")
    for _ in range(BULK_ROUNDS):  # interleaved: both best-ofs span one window
        sketch = factory()
        start = time.perf_counter()
        add_hash = sketch.add_hash
        for hash_value in scalar_hashes:
            add_hash(hash_value)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
        bulk_sketch = factory()
        start = time.perf_counter()
        bulk_sketch.add_hashes(hashes)
        bulk_seconds = min(bulk_seconds, time.perf_counter() - start)

    # The contract the speedup rests on: both paths reach the same state.
    if scalar_n == n and sketch.to_bytes() != bulk_sketch.to_bytes():
        raise AssertionError(f"bulk state diverged from scalar state for {name}")

    scalar_rate = _rate(scalar_seconds, scalar_n)
    bulk_rate = _rate(bulk_seconds, n)
    return {
        "sketch": name,
        "n": n,
        "scalar_measured_n": scalar_n,
        "scalar_items_per_s": scalar_rate,
        "bulk_items_per_s": bulk_rate,
        "speedup": bulk_rate / scalar_rate,
    }


def bench_raw_items(n: int) -> dict:
    """The raw-item path: vectorised hashing + bulk insert vs add() loop."""
    items = np.arange(n, dtype=np.int64)
    scalar_n = min(n, SCALAR_CAP // 4)  # per-item hashing is slower still

    scalar_items = items[:scalar_n].tolist()
    warm = ExaLogLog(2, 20, 8)
    for item in scalar_items[:1000]:
        warm.add(item)
    ExaLogLog(2, 20, 8).add_batch(items[: max(1, n // 100)])
    scalar_seconds = bulk_seconds = float("inf")
    for _ in range(BULK_ROUNDS):  # interleaved: both best-ofs span one window
        sketch = ExaLogLog(2, 20, 8)
        start = time.perf_counter()
        for item in scalar_items:
            sketch.add(item)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
        bulk_sketch = ExaLogLog(2, 20, 8)
        start = time.perf_counter()
        bulk_sketch.add_batch(items)
        bulk_seconds = min(bulk_seconds, time.perf_counter() - start)

    scalar_rate = _rate(scalar_seconds, scalar_n)
    bulk_rate = _rate(bulk_seconds, n)
    return {
        "sketch": "ExaLogLog(2,20,8) add_batch(int64 items)",
        "n": n,
        "scalar_measured_n": scalar_n,
        "scalar_items_per_s": scalar_rate,
        "bulk_items_per_s": bulk_rate,
        "speedup": bulk_rate / scalar_rate,
    }


def zipf_groups(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` integer groups of ``GROUPED_KEYS``, Zipf(``GROUPED_EXPONENT``)."""
    weights = np.arange(1, GROUPED_KEYS + 1, dtype=np.float64) ** -GROUPED_EXPONENT
    ranks = np.searchsorted(np.cumsum(weights) / weights.sum(), rng.random(n))
    return rng.permutation(GROUPED_KEYS)[np.minimum(ranks, GROUPED_KEYS - 1)]


def _single_rate(hashes: np.ndarray) -> float:
    """Best-of-``BULK_ROUNDS`` rate of one ``ExaLogLog.add_hashes`` call."""
    seconds = float("inf")
    for _ in range(BULK_ROUNDS):
        sketch = ExaLogLog(2, 20, 8)
        start = time.perf_counter()
        sketch.add_hashes(hashes)
        seconds = min(seconds, time.perf_counter() - start)
    return _rate(seconds, len(hashes))


def bench_grouped(
    label: str, groups: np.ndarray, batch: int, rng: np.random.Generator
) -> dict:
    """Grouped ``add_batch`` rate over ``groups``, relative to one sketch."""
    n = len(groups)
    items = rng.integers(0, 1 << 63, size=n, dtype=np.int64)
    batches = [
        (groups[start : start + batch], items[start : start + batch])
        for start in range(0, n, batch)
    ]

    def grouped() -> DistinctCountAggregator:
        aggregator = DistinctCountAggregator(2, 20, 8)
        for batch_groups, batch_items in batches:
            aggregator.add_batch(batch_groups, batch_items)
        return aggregator

    grouped()  # warm ufuncs/allocator
    grouped_seconds = float("inf")
    for _ in range(BULK_ROUNDS):
        start = time.perf_counter()
        aggregator = grouped()
        grouped_seconds = min(grouped_seconds, time.perf_counter() - start)
    single_rate = _single_rate(rng.integers(0, 1 << 64, size=n, dtype=np.uint64))

    # Batching is invisible in the result: one add_batch of every row.
    whole = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
    if aggregator.to_bytes() != whole.to_bytes():
        raise AssertionError(f"batched grouped ingest diverged from one add_batch ({label})")

    grouped_rate = _rate(grouped_seconds, n)
    return {
        "sketch": f"DistinctCountAggregator add_batch ({label}) / ExaLogLog add_hashes",
        "n": n,
        "grouped_items_per_s": grouped_rate,
        "single_items_per_s": single_rate,
        "speedup": grouped_rate / single_rate,
    }


def bench_windowed(rng: np.random.Generator) -> dict:
    """Windowed ``add_hashes`` rate with per-item timestamps, relative to one sketch.

    Timestamps rise through ``WINDOWED_WINDOWS`` windows with up to one
    bucket width of jitter, so a batch interleaves two or three buckets
    and the stream creates and evicts buckets as it goes.
    """
    n = WINDOWED_N
    window = 60.0
    width = window / WINDOWED_BUCKETS
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    times = np.sort(rng.uniform(0.0, WINDOWED_WINDOWS * window, size=n))
    times += rng.uniform(0.0, width, size=n)
    batches = [
        (hashes[start : start + WINDOWED_BATCH], times[start : start + WINDOWED_BATCH])
        for start in range(0, n, WINDOWED_BATCH)
    ]

    def windowed() -> SlidingWindowDistinctCounter:
        counter = SlidingWindowDistinctCounter(window, buckets=WINDOWED_BUCKETS)
        for batch_hashes, batch_times in batches:
            counter.add_hashes(batch_hashes, at=batch_times)
        return counter

    windowed()  # warm ufuncs/allocator
    windowed_seconds = float("inf")
    for _ in range(BULK_ROUNDS):
        start = time.perf_counter()
        counter = windowed()
        windowed_seconds = min(windowed_seconds, time.perf_counter() - start)
    single_rate = _single_rate(hashes)

    # Batching is invisible in the result: one add_hashes of every hash.
    whole = SlidingWindowDistinctCounter(window, buckets=WINDOWED_BUCKETS)
    whole.add_hashes(hashes, at=times)
    if counter.aggregator != whole.aggregator:
        raise AssertionError("batched windowed ingest diverged from one add_hashes")

    windowed_rate = _rate(windowed_seconds, n)
    return {
        "sketch": (
            "SlidingWindowDistinctCounter add_hashes (per-item timestamps, "
            f"{WINDOWED_BUCKETS} buckets) / ExaLogLog add_hashes"
        ),
        "n": n,
        "grouped_items_per_s": windowed_rate,
        "single_items_per_s": single_rate,
        "speedup": windowed_rate / single_rate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI mode: n in {1e4, 1e5}"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_JSON, help="JSON output path"
    )
    args = parser.parse_args(argv)

    sizes = [10_000, 100_000] if args.quick else [10_000, 1_000_000, 10_000_000]
    rng = np.random.Generator(np.random.PCG64(0xB0C4))

    rows = []
    for n in sizes:
        hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        for name, factory in SKETCHES:
            row = bench_sketch(name, factory, hashes)
            rows.append(row)
            print(
                f"{name:36s} n={n:>9,d}  scalar {row['scalar_items_per_s']:>12,.0f}/s"
                f"  bulk {row['bulk_items_per_s']:>14,.0f}/s"
                f"  speedup {row['speedup']:>7.1f}x"
            )
        rows.append(bench_raw_items(n))
        print(
            f"{'(raw int64 items via add_batch)':36s} n={n:>9,d}"
            f"  speedup {rows[-1]['speedup']:>7.1f}x"
        )

    grouped_rng = np.random.Generator(np.random.PCG64(0x6F0B))
    rows.append(
        bench_grouped(
            f"{GROUPED_KEYS} Zipf({GROUPED_EXPONENT}) int groups",
            zipf_groups(grouped_rng, GROUPED_N),
            GROUPED_BATCH,
            grouped_rng,
        )
    )
    dense_rng = np.random.Generator(np.random.PCG64(0xDE45))
    rows.append(
        bench_grouped(
            f"{DENSE_KEYS} uniform int groups, {DENSE_BATCH}-row batches",
            dense_rng.integers(0, DENSE_KEYS, size=DENSE_N, dtype=np.int64),
            DENSE_BATCH,
            dense_rng,
        )
    )
    rows.append(bench_windowed(np.random.Generator(np.random.PCG64(0x3D0A))))
    for row in rows[-3:]:
        print(
            f"{'(grouped ingest / one add_hashes)':36s} n={row['n']:>9,d}"
            f"  grouped {row['grouped_items_per_s']:>12,.0f}/s"
            f"  ratio {row['speedup']:>9.5f}"
        )

    # The acceptance gate: >= 10x for ExaLogLog at n = 1e6 (full mode).
    # Quick mode guards the same path with a relaxed 3x bar at its largest n.
    gate_n, gate_factor = (max(sizes), 3.0) if args.quick else (1_000_000, 10.0)
    headline = [
        row
        for row in rows
        if row["sketch"].startswith("ExaLogLog") and row["n"] >= gate_n
    ]
    payload = {
        "quick": args.quick,
        "sizes": sizes,
        "results": rows,
        "headline_min_exaloglog_speedup": (
            min(row["speedup"] for row in headline) if headline else None
        ),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(
        "== bulk ingest: scalar add_hash loop vs vectorised add_hashes ==\n"
        + format_table(
            rows,
            ["sketch", "n", "scalar_items_per_s", "bulk_items_per_s", "speedup"],
        )
        + "\n"
    )
    print(f"\nwrote {args.output} and {OUTPUT_TXT}")

    if headline:
        worst = min(row["speedup"] for row in headline)
        if worst < gate_factor:
            print(
                f"FAIL: ExaLogLog bulk speedup {worst:.1f}x < {gate_factor:g}x "
                f"at n >= {gate_n:,d}"
            )
            return 1
        print(f"OK: ExaLogLog bulk speedup >= {worst:.1f}x at n >= {gate_n:,d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
