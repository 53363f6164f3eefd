"""System benchmark: four workloads, end-to-end metrics, layer tracing.

Run from the repository root::

    python3 benchmarks/system/run.py --seed 1                # all four workloads
    python3 benchmarks/system/run.py --seed 1 --trace        # plus per-layer metrics
    python3 benchmarks/system/run.py --smoke                 # small data, every metric
    python3 benchmarks/system/run.py --workload ingest_mem --seed 3 \
        --seconds 10 --trace 0                               # one workload

Every workload runs in fresh child processes (``child.py``): two that
only set up, then the measured run, and ``setup_s`` is the median of the
three set-ups. With ``--trace`` a traced run follows the untraced one;
per-layer metrics come from the traced run, end-to-end metrics from the
untraced one, and their op times give the tracing overhead.

Each metric prints as ``workload metric value unit``. The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With one ``--workload``, ``metrics`` holds the end-to-end metrics of
``BENCHMARK.json`` (or its per-layer metrics under ``--trace``); with
several it maps each workload to its metrics. The exit code is 0 only
when every correctness check passed and no op failed, and 2 when the
program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

from stats import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "benchmarks" / "output" / "system"

#: Extra processes that only set up, beside the measured one.
SETUP_SAMPLES = 2

#: A single-workload invocation must finish well inside three minutes.
DEADLINE_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured work, in seconds on a 2-CPU box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small data, every metric")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    return parser.parse_args(argv)


def child_env() -> dict:
    """The child environment: one thread each, no program instrumentation."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, workload: str, deadline, trace: int = 0, setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", "smoke" if args.smoke else "full",
        "--trace", str(trace),
        "--out", str(args.out),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    with subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            shutil.rmtree(args.out / f"work-{workload}-{child.pid}", ignore_errors=True)
            return {"correct": False, "attempted": 1, "failed": 1,
                    "failures": [f"{workload}: child ran past the deadline"]}
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1,
                "failures": [f"{workload}: child exited {child.returncode} without a result"]}


def run_workload(args, workload: str, deadline) -> dict:
    """All child runs of one workload, merged into one report."""
    setups = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_SAMPLES):
            sample = run_child(args, workload, deadline, setup_only=True)
            if "setup_s" in sample:
                setups.append(sample["setup_s"])
    report = run_child(args, workload, deadline)
    if "end_to_end" in report:
        setups.append(report["end_to_end"]["setup_s"])
        report["end_to_end"]["setup_s"] = median(setups)
    if args.trace:
        traced = run_child(args, workload, deadline, trace=1)
        report["failures"] = report.get("failures", []) + traced.get("failures", [])
        report["correct"] = report["correct"] and traced["correct"]
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["per_layer"] = traced.get("per_layer", {})
        report["closure"] = traced.get("closure")
        if "op_time_s" in report and "op_time_s" in traced:
            report["trace_overhead"] = traced["op_time_s"] / report["op_time_s"] - 1.0
    return report


def layer_table(workload: str, report: dict, units: dict) -> "list[str]":
    """The per-layer metrics of one workload, busiest site first."""
    layers = report["per_layer"]
    sites = sorted(
        {name.rsplit(".", 1)[0] for name in layers if name.endswith(".share")},
        key=lambda site: -layers[f"{site}.share"],
    )
    lines = [f"{'site':44} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for site in sites:
        lines.append(
            f"{site:44} {layers[site + '.calls']:>9} "
            f"{layers[site + '.self_s']:>10.4f} {layers[site + '.share']:>7.2%}"
        )
    for name, value in layers.items():
        if not name.endswith((".calls", ".self_s", ".share")):
            lines.append(f"{name:44} {value:>20.4f} {units.get(name, '')}")
    closure = report.get("closure") or {}
    if closure:
        lines.append(
            f"top-level spans cover {1 - closure['gap']:.2%} of "
            f"{closure['op_time_s']:.3f} s op time ({closure['spans']} spans)"
        )
    return [f"[{workload}] {line}" for line in lines]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    known = [entry["name"] for entry in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    declared = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}

    deadline = time.monotonic() + DEADLINE_S if len(workloads) == 1 else None
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        report = run_workload(args, workload, deadline)
        attempted += report.get("attempted", 0)
        failed += report.get("failed", 0)
        correct = correct and report.get("correct", False)
        for failure in report.get("failures", []):
            print(f"[{workload}] CHECK FAILED: {failure}")
        for name, value in report.get("end_to_end", {}).items():
            print(f"{workload} {name} {value:.6g} {units[name]}")
        for name, value in report.get("diagnostics", {}).items():
            print(f"{workload} diagnostic {name} {value:.6g}")
        if args.trace and report.get("per_layer"):
            table = layer_table(workload, report, units)
            (args.out / f"layers-{workload}.txt").write_text("\n".join(table) + "\n")
            print("\n".join(table))
        if "trace_overhead" in report:
            print(f"{workload} tracing overhead {report['trace_overhead']:+.2%}")
        values = report.get(declared, {})
        chosen = {}
        for entry in spec[declared]:
            if entry["name"] in values:
                chosen[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            else:
                correct = False
                print(f"[{workload}] missing metric {entry['name']}")
        metrics[workload] = chosen
    if len(workloads) == 1:
        metrics = metrics[workloads[0]]
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
