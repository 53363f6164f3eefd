"""Estimation throughput: scalar Alg. 3 + Alg. 8 vs the batched engine.

Measures the query side that PR 4 vectorises:

* **single-sketch ML estimate** — ``compute_coefficients`` +
  ``estimate_from_coefficients`` (the pre-batch scalar pipeline) against
  ``ExaLogLog.estimate()``'s vectorised fast path, at p = 11 and p = 14.
* **grouped estimates()** — a ``DistinctCountAggregator`` with many
  groups, scalar per-group pipeline against the one-shot batched
  ``estimates()`` (stacked register matrix, simultaneous Newton solve).
* **family-wide** — ``HyperLogLog.estimate_ml_many`` over a sketch fleet
  (context row, not gated).
* **point** — one dense ``ExaLogLog(2, 20, 8)`` through
  ``batch_estimate_sketches([sketch])``, the query plane's point read,
  against the scalar pipeline on the same sketch.
* **mixed groups** — ``estimates()`` over 10^4 groups of a
  ``sparse=True`` aggregator, most in token mode and some dense, against
  the scalar pipeline per group (Alg. 3 + 8 for dense groups, Alg. 7 + 8
  for token groups).
* **top after write** — on the mixed groups, ``top(10)`` of a copy that
  holds no solved estimate against one ``fold`` of one group followed
  by ``top(10)``, which solves only the group the fold wrote.
* **point after write** — on the mixed groups, a point query
  (``Estimate(Filter(Scan(), keys=(k,)))``) of a copy that holds no
  solved estimate against the same query after one ``fold`` into
  another group, which finds the group's estimate kept.

An aggregator keeps each group's solved estimate until the group is
written, so every grouped ``estimates()`` row times a ``from_bytes``
copy, made outside the timed region, which holds none: the rows time
the solve, not reads of kept estimates.

The point, mixed-groups, top-after-write and point-after-write rows run
at the same n in quick and full mode, so ``perf_smoke.py`` compares them
with the full-mode baseline.

Every comparison asserts bit-identical results before reporting a
speedup — the batched engine's contract is exact equality, not
approximation. Results go to ``BENCH_estimate.json`` and a text table
under ``benchmarks/output/``.

Acceptance gates (full mode): >= 10x single-sketch at p >= 14 and
>= 50x on the >= 10k-group ``estimates()``. Quick mode (CI, 1-core
runners) shrinks the workload and relaxes the gates to the correctness
assertion only, mirroring the parallel bench's SKIP convention.

Run directly::

    PYTHONPATH=src python benchmarks/bench_estimate.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aggregate import DistinctCountAggregator
from repro.baselines.hyperloglog import HyperLogLog
from repro.core.exaloglog import ExaLogLog
from repro.core.mlestimation import compute_coefficients, estimate_from_coefficients
from repro.core.token import estimate_from_tokens
from repro.estimation.batch import batch_estimate_sketches
from repro.experiments.common import format_table
from repro.query import Estimate, Filter, Scan, execute

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_estimate.json"
OUTPUT_TXT = pathlib.Path(__file__).resolve().parent / "output" / "bench_estimate.txt"

#: Timed repetitions of the batched call (best-of; first calls pay
#: allocator and table-build costs that are not the estimation path).
BATCH_ROUNDS = 3

#: Rounds of the single-sketch rows, in quick and full mode alike: one
#: scalar call, then ``BATCH_ROUNDS`` batched calls, best of each side.
#: Interleaved, so one stall of the host cannot cover all of one side's
#: rounds and none of the other's.
SINGLE_ROUNDS = 10

#: Interleaved rounds of the point rows (best of each side).
POINT_ROUNDS = 20

#: Seconds each point round runs, repeating its call: one call takes
#: well under a millisecond, so a best of single calls rides on the
#: host's luck of the moment.
ROUND_SECONDS = 0.02

#: The point row's items (about 20 per register at p = 8).
POINT_N = 5_000

#: The mixed-groups row: one row per group, then Zipf(1.1) rows over the
#: same keys, so about 160 of the groups pass break-even and go dense.
MIXED_GROUPS = 10_000
MIXED_N = 400_000

#: Interleaved rounds of the top-after-write row (best of each side), and
#: the hashes each of its writes folds into one group.
TOP_ROUNDS = 10
TOP_WRITE_HASHES = 10

#: The token groups the point-after-write row reads beside every dense
#: group, so its sample mixes both modes.
POINT_TOKEN_SAMPLE = 160


def _scalar_estimate(sketch) -> float:
    """The pre-batch pipeline: scalar Algorithm 3 + Algorithm 8 + Eq. (4)."""
    return estimate_from_coefficients(
        compute_coefficients(sketch._registers, sketch.params), sketch.params
    )


def bench_single(p: int, n: int, rng) -> dict:
    sketch = ExaLogLog(2, 20, p)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=n, dtype=np.uint64))

    _scalar_estimate(sketch)
    sketch.estimate()  # warm the kernel's tables
    scalar_seconds = batched_seconds = float("inf")
    for _ in range(SINGLE_ROUNDS):  # interleaved: both best-ofs span one window
        start = time.perf_counter()
        scalar = _scalar_estimate(sketch)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
        for _ in range(BATCH_ROUNDS):
            start = time.perf_counter()
            batched = sketch.estimate()
            batched_seconds = min(batched_seconds, time.perf_counter() - start)

    if batched != scalar:
        raise AssertionError(
            f"batched single-sketch estimate diverged at p={p}: "
            f"{batched!r} != {scalar!r}"
        )
    return {
        "section": "single",
        "config": f"ELL(2,20) p={p}",
        "rows": 1,
        "n": n,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def bench_groups(p: int, groups: int, items_per_group: int, rng) -> dict:
    aggregator = DistinctCountAggregator(t=2, d=20, p=p, sparse=False)
    aggregator.fold_segments(
        (
            str(group).encode(),
            rng.integers(0, 1 << 64, size=items_per_group, dtype=np.uint64),
        )
        for group in range(groups)
    )

    keys = list(aggregator.groups())
    sketches = [aggregator.group_sketch(key) for key in keys]
    start = time.perf_counter()
    scalar = [_scalar_estimate(sketch) for sketch in sketches]
    scalar_seconds = time.perf_counter() - start

    aggregator.estimates()  # warm the kernel's tables
    blob = aggregator.to_bytes()
    batched_seconds = float("inf")
    for _ in range(BATCH_ROUNDS):
        cold = DistinctCountAggregator.from_bytes(blob)  # no solved estimate
        start = time.perf_counter()
        batched = cold.estimates()
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    if batched != dict(zip(keys, scalar)):
        raise AssertionError(
            f"batched group estimates diverged from the scalar pipeline "
            f"(p={p}, {groups} groups)"
        )
    return {
        "section": "groups",
        "config": f"estimates() p={p}",
        "rows": groups,
        "n": groups * items_per_group,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def _round(call, repeats: int) -> "tuple[float, float]":
    """Seconds per call over ``repeats`` calls of ``call``, and its result."""
    start = time.perf_counter()
    for _ in range(repeats):
        result = call()
    return (time.perf_counter() - start) / repeats, result


def bench_point(n: int, rng) -> dict:
    """One dense sketch through the batch entry point, as a point read."""
    sketch = ExaLogLog(2, 20, 8)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=n, dtype=np.uint64))

    def scalar_call() -> float:
        return _scalar_estimate(sketch)

    def batched_call() -> float:
        return batch_estimate_sketches([sketch])[0]

    batched_call()  # warm the kernel's tables
    # One timed call of each side sizes its rounds to ``ROUND_SECONDS``.
    repeats = [
        max(1, math.ceil(ROUND_SECONDS / _round(call, 1)[0]))
        for call in (scalar_call, batched_call)
    ]
    scalar_seconds = batched_seconds = float("inf")
    for _ in range(POINT_ROUNDS):  # interleaved: both best-ofs span one window
        seconds, scalar = _round(scalar_call, repeats[0])
        scalar_seconds = min(scalar_seconds, seconds)
        seconds, batched = _round(batched_call, repeats[1])
        batched_seconds = min(batched_seconds, seconds)

    if batched != scalar:
        raise AssertionError(f"point estimate diverged: {batched!r} != {scalar!r}")
    return {
        "section": "point",
        "config": "ELL(2,20) p=8",
        "rows": 1,
        "n": n,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def _scalar_group_estimate(sketch) -> float:
    """The scalar pipeline for one ``SparseExaLogLog`` group."""
    if sketch.is_sparse:
        return estimate_from_tokens(sketch._tokens, sketch.v)
    return _scalar_estimate(sketch.densify())


def _mixed_aggregator(groups: int, n: int, rng) -> "tuple[DistinctCountAggregator, int]":
    """One row per group, then Zipf(1.1) rows over the same keys: the
    aggregator and its count of dense groups (some, not all)."""
    weights = np.arange(1, groups + 1, dtype=np.float64) ** -1.1
    zipf = rng.choice(groups, size=n - groups, p=weights / weights.sum())
    keys = np.concatenate([np.arange(groups), zipf])
    aggregator = DistinctCountAggregator(t=2, d=20, p=8, sparse=True)
    aggregator.add_batch(keys, rng.integers(0, 1 << 62, size=n, dtype=np.int64))
    dense = sum(not aggregator.group_sketch(key).is_sparse for key in aggregator.groups())
    if not 0 < dense < groups:
        raise AssertionError(f"expected token and dense groups, got {dense} dense")
    return aggregator, dense


def bench_mixed_groups(groups: int, n: int, rng) -> dict:
    aggregator, dense = _mixed_aggregator(groups, n, rng)
    keys = list(aggregator.groups())
    sketches = [aggregator.group_sketch(key) for key in keys]

    aggregator.estimates()  # warm the kernel's tables
    blob = aggregator.to_bytes()
    scalar_seconds = batched_seconds = float("inf")
    for _ in range(BATCH_ROUNDS):
        cold = DistinctCountAggregator.from_bytes(blob)  # no solved estimate
        start = time.perf_counter()
        scalar = [_scalar_group_estimate(sketch) for sketch in sketches]
        middle = time.perf_counter()
        batched = cold.estimates()
        end = time.perf_counter()
        scalar_seconds = min(scalar_seconds, middle - start)
        batched_seconds = min(batched_seconds, end - middle)

    if batched != dict(zip(keys, scalar)):
        raise AssertionError(
            f"batched mixed-group estimates diverged from the scalar pipeline "
            f"({groups} groups, {dense} dense)"
        )
    return {
        "section": "mixed groups",
        "config": "estimates() p=8",
        "rows": groups,
        "dense_rows": dense,
        "n": n,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def bench_top_after_write(groups: int, n: int, rng) -> dict:
    """``top(10)`` after a one-group write, against ``top(10)`` cold.

    The cold side reads a ``from_bytes`` copy, made before its round, so
    it solves every group; the warm side folds
    :data:`TOP_WRITE_HASHES` hashes into one random group and reads
    ``top(10)``, which solves that group alone. The two sides' rounds
    interleave, each at least :data:`ROUND_SECONDS` long.
    """
    aggregator, _ = _mixed_aggregator(groups, n, rng)
    keys = list(aggregator.groups())
    blob = aggregator.to_bytes()
    aggregator.top(10)  # warm the kernel's tables; every group solved

    def cold_round(repeats: int) -> float:
        copies = [DistinctCountAggregator.from_bytes(blob) for _ in range(repeats)]
        start = time.perf_counter()
        for cold in copies:
            cold.top(10)
        return (time.perf_counter() - start) / repeats

    def warm_round(repeats: int) -> float:
        picks = rng.integers(0, len(keys), size=repeats).tolist()
        writes = rng.integers(0, 1 << 64, size=(repeats, TOP_WRITE_HASHES), dtype=np.uint64)
        start = time.perf_counter()
        for pick, hashes in zip(picks, writes):
            aggregator.fold(keys[pick], hashes)
            aggregator.top(10)
        return (time.perf_counter() - start) / repeats

    # One timed call of each side sizes its rounds to ``ROUND_SECONDS``.
    repeats = [max(1, math.ceil(ROUND_SECONDS / call(1))) for call in (cold_round, warm_round)]
    cold_seconds = warm_seconds = float("inf")
    for _ in range(TOP_ROUNDS):  # interleaved: both best-ofs span one window
        cold_seconds = min(cold_seconds, cold_round(repeats[0]))
        warm_seconds = min(warm_seconds, warm_round(repeats[1]))

    cold = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
    if aggregator.top(10) != cold.top(10) or aggregator.estimates() != cold.estimates():
        raise AssertionError("estimates kept across writes diverged from a fresh solve")
    return {
        "section": "top after write",
        "config": "top(10) p=8",
        "rows": groups,
        "n": n,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
    }


def bench_point_after_write(groups: int, n: int, rng) -> dict:
    """A point query after a write to another group, against one cold.

    The keys rotate over a fixed sample: every dense group and
    :data:`POINT_TOKEN_SAMPLE` token groups. The cold side reads a
    ``from_bytes`` copy, made before its round, so each read solves its
    group (a round reads each key at most once). The warm side folds
    :data:`TOP_WRITE_HASHES` hashes into a group outside the sample
    before each read, outside the timed region, so each read finds its
    group's estimate kept. The two sides' rounds interleave, each at
    least :data:`ROUND_SECONDS` long.
    """
    aggregator, dense = _mixed_aggregator(groups, n, rng)
    keys = list(aggregator.groups())
    modes = [aggregator.group_sketch(key).is_sparse for key in keys]
    token_keys = [key for key, sparse in zip(keys, modes) if sparse]
    picked = rng.choice(len(token_keys), size=POINT_TOKEN_SAMPLE, replace=False)
    sample = [key for key, sparse in zip(keys, modes) if not sparse]
    sample += [token_keys[index] for index in picked.tolist()]
    rng.shuffle(sample)
    others = sorted(set(token_keys) - set(sample))
    plans = [Estimate(Filter(Scan(), keys=(key,))) for key in sample]
    blob = aggregator.to_bytes()
    aggregator.top(10)  # warm the kernel's tables; every group solved
    answers = {"cold": {}, "warm": {}}
    turns = {"cold": 0, "warm": 0}

    def reads(side: str, repeats: int, source, write) -> float:
        seconds = 0.0
        for _ in range(repeats):
            plan = plans[turns[side] % len(plans)]
            turns[side] += 1
            write()
            start = time.perf_counter()
            rows = execute(plan, source).rows
            seconds += time.perf_counter() - start
            answers[side].update(rows)
        return seconds / repeats

    def cold_round(repeats: int) -> float:
        cold = DistinctCountAggregator.from_bytes(blob)  # no solved estimate
        return reads("cold", min(repeats, len(plans)), cold, lambda: None)

    def warm_round(repeats: int) -> float:
        def write() -> None:
            other = others[int(rng.integers(len(others)))]
            aggregator.fold(other, rng.integers(0, 1 << 64, size=TOP_WRITE_HASHES, dtype=np.uint64))

        return reads("warm", repeats, aggregator, write)

    # One timed read of each side sizes its rounds to ``ROUND_SECONDS``.
    repeats = [max(1, math.ceil(ROUND_SECONDS / call(1))) for call in (cold_round, warm_round)]
    cold_seconds = warm_seconds = float("inf")
    for _ in range(POINT_ROUNDS):  # interleaved: both best-ofs span one window
        cold_seconds = min(cold_seconds, cold_round(repeats[0]))
        warm_seconds = min(warm_seconds, warm_round(repeats[1]))

    fresh = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
    expected = {key: fresh.estimate(key) for key in sample}
    if any(answers[side] != {key: expected[key] for key in answers[side]} for side in answers):
        raise AssertionError("kept point estimates diverged from a fresh solve")
    return {
        "section": "point after write",
        "config": "estimate 'k' p=8",
        "rows": groups,
        "dense_rows": dense,
        "n": n,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
    }


def bench_hyperloglog(p: int, count: int, items_per_sketch: int, rng) -> dict:
    sketches = []
    for _ in range(count):
        sketch = HyperLogLog(p)
        sketch.add_hashes(
            rng.integers(0, 1 << 64, size=items_per_sketch, dtype=np.uint64)
        )
        sketches.append(sketch)

    from repro.core.params import make_params

    params = make_params(0, 0, p)
    start = time.perf_counter()
    scalar = [
        estimate_from_coefficients(
            compute_coefficients(sketch._registers, params), params
        )
        for sketch in sketches
    ]
    scalar_seconds = time.perf_counter() - start

    HyperLogLog.estimate_ml_many(sketches)
    batched_seconds = float("inf")
    for _ in range(BATCH_ROUNDS):
        start = time.perf_counter()
        batched = HyperLogLog.estimate_ml_many(sketches)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    if batched.tolist() != scalar:
        raise AssertionError("batched HLL ML estimates diverged from scalar")
    return {
        "section": "hll",
        "config": f"HLL ML many p={p}",
        "rows": count,
        "n": count * items_per_sketch,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: small workload, correctness-only (no speedup gate)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_JSON, help="JSON output path"
    )
    args = parser.parse_args(argv)
    rng = np.random.Generator(np.random.PCG64(0xE571))

    rows = []
    if args.quick:
        rows.append(bench_single(11, 16_000, rng))
        rows.append(bench_single(14, 50_000, rng))
        rows.append(bench_groups(8, 400, 500, rng))
        rows.append(bench_hyperloglog(10, 200, 2_000, rng))
    else:
        rows.append(bench_single(11, 16_000, rng))
        rows.append(bench_single(14, 200_000, rng))
        rows.append(bench_groups(10, 10_000, 8_000, rng))
        rows.append(bench_hyperloglog(12, 2_000, 20_000, rng))
    # Own generators: the same data in quick and full mode.
    rows.append(bench_point(POINT_N, np.random.Generator(np.random.PCG64(0x9017))))
    rows.append(
        bench_mixed_groups(
            MIXED_GROUPS, MIXED_N, np.random.Generator(np.random.PCG64(0x3172))
        )
    )
    rows.append(
        bench_top_after_write(
            MIXED_GROUPS, MIXED_N, np.random.Generator(np.random.PCG64(0x3172))
        )
    )
    rows.append(
        bench_point_after_write(
            MIXED_GROUPS, MIXED_N, np.random.Generator(np.random.PCG64(0x3172))
        )
    )

    for row in rows:
        sides = ("cold", "warm") if "cold_s" in row else ("scalar", "batched")
        print(
            f"{row['config']:22s} rows={row['rows']:>6,d}  "
            f"{sides[0]} {row[sides[0] + '_s']:9.4f} s  "
            f"{sides[1]} {row[sides[1] + '_s']:9.5f} s"
            f"  speedup {row['speedup']:7.1f}x"
        )

    single_gate = next(
        row["speedup"] for row in rows if row["section"] == "single" and "p=14" in row["config"]
    )
    groups_gate = next(row["speedup"] for row in rows if row["section"] == "groups")
    payload = {
        "quick": args.quick,
        "results": rows,
        "single_sketch_p14_speedup": single_gate,
        "grouped_estimates_speedup": groups_gate,
        "bit_identical": True,  # asserted above, the run fails otherwise
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    OUTPUT_TXT.parent.mkdir(exist_ok=True)
    OUTPUT_TXT.write_text(
        "== estimation: scalar Alg.3 + Alg.8 pipeline vs batched engine ==\n"
        + format_table(
            rows,
            [
                "section", "config", "rows", "n", "scalar_s", "batched_s",
                "cold_s", "warm_s", "speedup",
            ],
        )
        + "\n"
    )
    print(f"\nwrote {args.output} and {OUTPUT_TXT}")

    if args.quick:
        # Mirrors the parallel bench's convention: on CI runners timing is
        # not meaningful, so the speedup gate is skipped and the run
        # stands on the bit-identity assertions above.
        print(
            "SKIP: speedup gates skipped in quick mode "
            "(bit-identity of all batched estimates asserted)"
        )
        return 0
    failed = False
    if single_gate < 10.0:
        print(f"FAIL: single-sketch p=14 speedup {single_gate:.1f}x < 10x")
        failed = True
    if groups_gate < 50.0:
        print(f"FAIL: grouped estimates() speedup {groups_gate:.1f}x < 50x")
        failed = True
    if not failed:
        print(
            f"OK: single-sketch p=14 {single_gate:.1f}x >= 10x, "
            f"grouped estimates() {groups_gate:.1f}x >= 50x"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
