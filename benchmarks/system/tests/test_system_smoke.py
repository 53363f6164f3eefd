"""End-to-end smoke runs of the benchmark command."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(*arguments, cwd=ROOT, timeout=180):
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return completed, time.monotonic() - started


def names(kind: str) -> "list[str]":
    return [entry["name"] for entry in SPEC[kind]]


def test_smoke_runs_every_workload_and_emits_every_end_to_end_metric(tmp_path):
    completed, elapsed = run("--smoke", "--seed", "3", "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 30
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        metrics = result["metrics"][workload]
        assert list(metrics) == names("end_to_end")
        assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_smoke_emits_every_per_layer_metric_and_covers_every_site(tmp_path):
    completed, _ = run("--smoke", "--trace", "--seed", "4", "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    for workload in WORKLOADS:
        assert list(result["metrics"][workload]) == names("per_layer")
        assert f"{workload} tracing overhead" in completed.stdout
        assert (tmp_path / f"trace-{workload}.jsonl").stat().st_size > 0
        assert (tmp_path / f"layers-{workload}.txt").is_file()
    first = json.loads((tmp_path / "trace-ingest_mem.jsonl").open().readline())
    assert set(first) == {"id", "parent", "name", "start", "end", "workload", "op"}


def test_single_workload_prints_one_result_line(tmp_path):
    completed, _ = run("--workload", "ingest_mem", "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--smoke", "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == names("end_to_end")
    assert {entry["unit"] for entry in result["metrics"].values()} <= {
        entry["unit"] for entry in SPEC["end_to_end"]
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "system",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed, _ = run("--workload", "ingest_mem", "--seed", "1", "--seconds", "10",
                       "--trace", "0", cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


@pytest.mark.parametrize("spec_key", ["end_to_end", "per_layer"])
def test_declared_names_follow_the_naming_rules(spec_key):
    import re

    for entry in SPEC[spec_key]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
