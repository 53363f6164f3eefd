"""Pool observability: worker metric merge (fork + spawn), respawn visibility."""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.backends.bulk import exaloglog_registers
from repro.core.params import ExaLogLogParams
from repro.obs import metrics
from repro.parallel.pool import PersistentIngestPool

PARAMS = ExaLogLogParams(2, 16, 8)


@pytest.fixture(autouse=True)
def clean_metrics():
    was_enabled = metrics.enabled()
    metrics.reset()
    yield
    if was_enabled:
        metrics.enable()
    else:
        metrics.disable()
    metrics.reset()


def random_hashes(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _counter_value(name: str) -> float:
    metric = metrics.REGISTRY.get(name)
    return 0.0 if metric is None else metric.value


@pytest.mark.parametrize(
    "start_method",
    [
        pytest.param(
            "fork",
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="fork unavailable",
            ),
        ),
        "spawn",
    ],
)
def test_worker_metrics_merge_into_parent(start_method):
    """Each worker's fold metrics ship back and sum in the parent registry.

    Spawn workers do not inherit the parent's programmatic ``enable()``,
    so this also pins the per-job obs flag: the dispatch tuple carries it
    and the worker enables collection before running the task.
    """
    pool = PersistentIngestPool(
        workers=2, start_method=start_method, idle_timeout=0.0
    )
    try:
        hashes = random_hashes(41, 12000)
        expected = exaloglog_registers(hashes, PARAMS)  # before collection starts
        metrics.enable()
        before = _counter_value("backend.hashes_folded")
        ranges = [(0, 6000), (6000, 12000)]
        folded = pool.fold_registers(hashes, ranges, PARAMS, workers=2)
        assert np.array_equal(folded, expected)
        # Worker-side folds covered every hash exactly once; the drained
        # deltas merged additively into this (parent) registry.
        assert _counter_value("backend.hashes_folded") - before == 12000
        assert _counter_value("pool.jobs") >= 2
    finally:
        pool.shutdown()


def test_disabled_metrics_ship_nothing():
    pool = PersistentIngestPool(workers=2, start_method="spawn", idle_timeout=0.0)
    try:
        before = _counter_value("backend.hashes_folded")
        hashes = random_hashes(43, 4000)
        pool.fold_registers(hashes, [(0, 2000), (2000, 4000)], PARAMS, workers=2)
        assert _counter_value("backend.hashes_folded") == before
    finally:
        pool.shutdown()


def test_repeated_jobs_never_double_count():
    pool = PersistentIngestPool(workers=2, idle_timeout=0.0)
    try:
        metrics.enable()
        total = 0
        for seed in range(3):
            hashes = random_hashes(50 + seed, 5000)
            pool.fold_registers(
                hashes, [(0, 2500), (2500, 5000)], PARAMS, workers=2
            )
            total += len(hashes)
        # drain() (not snapshot()) per job: three calls sum exactly.
        assert _counter_value("backend.hashes_folded") == total
    finally:
        pool.shutdown()


def test_killed_worker_increments_respawn_counter(caplog):
    pool = PersistentIngestPool(workers=2, idle_timeout=0.0)
    try:
        metrics.enable()
        pool.warm(2)
        assert pool.respawn_count == 0
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if victim not in pool.worker_pids():
                break
            time.sleep(0.02)
        before = _counter_value("pool.worker_respawns")
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
            hashes = random_hashes(61, 6000)
            folded = pool.fold_registers(
                hashes, [(0, 3000), (3000, 6000)], PARAMS, workers=2
            )
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
        assert pool.respawn_count == 1
        assert _counter_value("pool.worker_respawns") == before + 1
        assert any(
            "died unexpectedly" in record.message for record in caplog.records
        )
    finally:
        pool.shutdown()
