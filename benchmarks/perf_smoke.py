"""Perf smoke: quick benches vs checked-in baselines, relative metrics only.

Runs the quick-mode ingest, estimation, parallel and store benches into a
scratch directory and compares their **relative** metrics (speedup ratios — the
numbers that survive a machine change, unlike items/sec) against the
checked-in ``BENCH_*.json`` baselines. Rows are matched by workload key
(sketch/config/mode plus n), so only measurements of the *same* workload
are ever compared; quick-mode rows with no full-mode twin are skipped and
reported. A matched ratio falling more than ``TOLERANCE`` (30%) below its
baseline fails the run — that is the CI tripwire for "someone made the
fast path slow" that absolute rates cannot provide on shared runners.

Every underlying bench still asserts bit-identity internally, so a
passing smoke run re-verifies correctness along the way.

Run directly::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A matched speedup may regress at most this fraction below its baseline.
TOLERANCE = 0.30

#: (label, bench module, checked-in baseline, row key fields, metric field).
BENCHES = [
    (
        "bulk_ingest",
        "bench_bulk_ingest",
        "BENCH_bulk_ingest.json",
        ("sketch", "n"),
        "speedup",
    ),
    (
        "estimate",
        "bench_estimate",
        "BENCH_estimate.json",
        ("section", "config", "n"),
        "speedup",
    ),
    (
        "parallel_ingest",
        "bench_parallel_ingest",
        "BENCH_parallel_ingest.json",
        ("section", "mode", "n"),
        "speedup_vs_bulk",
    ),
    (
        "store",
        "bench_store",
        "BENCH_store.json",
        ("section", "mode", "n"),
        "speedup",
    ),
]


def _rows_by_key(payload: dict, key_fields: tuple, metric: str) -> dict:
    """Rows that carry the key fields and the metric, by key."""
    return {
        tuple(row[field] for field in key_fields): row
        for row in payload.get("results", [])
        if all(field in row for field in (*key_fields, metric))
    }


def compare(label: str, fresh: dict, baseline: dict, key_fields, metric) -> list[str]:
    """Regression messages for every matched row below tolerance."""
    fresh_rows = _rows_by_key(fresh, key_fields, metric)
    base_rows = _rows_by_key(baseline, key_fields, metric)
    common = sorted(set(fresh_rows) & set(base_rows), key=str)
    if not common:
        print(f"  {label}: no workload rows in common with the baseline (skipped)")
        return []
    failures = []
    for key in common:
        measured = fresh_rows[key][metric]
        expected = base_rows[key][metric]
        floor = expected * (1.0 - TOLERANCE)
        status = "ok" if measured >= floor else "REGRESSED"
        print(
            f"  {label} {key}: {metric} {measured:.3g} "
            f"(baseline {expected:.3g}, floor {floor:.3g}) {status}"
        )
        if measured < floor:
            failures.append(
                f"{label} {key}: {metric} {measured:.3g} < "
                f"{floor:.3g} (baseline {expected:.3g} - {TOLERANCE:.0%})"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="directory holding the checked-in BENCH_*.json baselines",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="perf-smoke-") as scratch:
        scratch_dir = pathlib.Path(scratch)
        for label, module_name, baseline_name, key_fields, metric in BENCHES:
            baseline_path = args.baseline_dir / baseline_name
            if not baseline_path.exists():
                print(f"  {label}: no baseline at {baseline_path} (skipped)")
                continue
            module = __import__(module_name)
            output = scratch_dir / f"{label}.json"
            print(f"== {label}: running {module_name} --quick ==")
            code = module.main(["--quick", "--output", str(output)])
            if code != 0:
                failures.append(f"{label}: quick bench exited with code {code}")
                continue
            fresh = json.loads(output.read_text())
            baseline = json.loads(baseline_path.read_text())
            failures.extend(compare(label, fresh, baseline, key_fields, metric))

    if failures:
        print("\nPERF SMOKE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nPERF SMOKE OK: no relative metric regressed beyond "
          f"{TOLERANCE:.0%} of its baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
