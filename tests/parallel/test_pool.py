"""PersistentIngestPool lifecycle: reuse, reaping, crashes, fork safety.

The pool's pitch is *warm* calls — workers and the shared-memory segment
persist between ``workers=`` calls — so these tests pin the lifecycle
properties that make that safe: identical results to the sequential fold,
stable worker identity across calls, idle-timeout retirement, crash
detection with retry-once (every task is pure, so a lost job always
retries), and a clean reset when a pool object is inherited through
``os.fork``.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.backends.bulk import exaloglog_registers
from repro.core.params import ExaLogLogParams
from repro.parallel.pool import (
    PersistentIngestPool,
    ShmSlice,
    attach_slice,
    pool_task,
)

PARAMS = ExaLogLogParams(2, 16, 8)


def random_hashes(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def halves(count: int) -> list[tuple[int, int]]:
    return [(0, count // 2), (count // 2, count)]


@pytest.fixture
def pool():
    instance = PersistentIngestPool(workers=2, idle_timeout=0.0)
    yield instance
    instance.shutdown()


# -- pool-task plumbing for the crash tests (registered at import time so
# -- fork-started workers inherit them) ----------------------------------------


@pool_task("test_echo")
def _task_echo(payload):
    return payload["value"]


@pool_task("test_crash_once")
def _task_crash_once(payload):
    flag = payload["flag"]
    if os.path.exists(flag):
        os.unlink(flag)
        os._exit(23)  # die hard: no exception, no result
    return payload["value"]


@pool_task("test_crash_always")
def _task_crash_always(payload):
    os._exit(24)


# -- correctness and reuse -----------------------------------------------------


def test_fold_matches_sequential(pool):
    hashes = random_hashes(1, 20000)
    folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
    assert np.array_equal(folded, exaloglog_registers(hashes, PARAMS))


def test_workers_survive_across_calls(pool):
    pool.warm(2)
    pids = sorted(pool.worker_pids())
    spawned = pool.spawn_count
    assert len(pids) == 2 and spawned == 2
    for seed in range(3):
        hashes = random_hashes(seed, 5000)
        folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
    assert sorted(pool.worker_pids()) == pids  # same processes served all calls
    assert pool.spawn_count == spawned  # ... without a single respawn


def test_pool_grows_to_largest_request(pool):
    pool.warm(1)
    assert len(pool.worker_pids()) == 1
    pool.warm(3)
    assert len(pool.worker_pids()) == 3
    pool.warm(2)  # warm never shrinks; reaping does
    assert len(pool.worker_pids()) == 3


def test_map_runs_registered_tasks(pool):
    values = list(range(7))
    results = pool.map("test_echo", [{"value": v} for v in values], workers=2)
    assert results == values


def test_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        PersistentIngestPool(workers=0)


# -- idle reaping --------------------------------------------------------------


def test_idle_reap_retires_workers():
    pool = PersistentIngestPool(workers=2, idle_timeout=0.2)
    try:
        pool.warm(2)
        spawned = pool.spawn_count
        deadline = time.monotonic() + 5.0
        while pool.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.worker_pids() == []  # the reaper retired the idle workers
        # The pool stays usable: the next call respawns lazily.
        hashes = random_hashes(5, 4000)
        folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
        assert pool.spawn_count > spawned
    finally:
        pool.shutdown()


# -- crash handling ------------------------------------------------------------


def test_killed_idle_worker_respawns(pool):
    pool.warm(2)
    victim = pool.worker_pids()[0]
    spawned = pool.spawn_count
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if victim not in pool.worker_pids():
            break
        time.sleep(0.02)
    hashes = random_hashes(7, 8000)
    folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
    assert np.array_equal(folded, exaloglog_registers(hashes, PARAMS))
    assert pool.spawn_count == spawned + 1  # exactly the victim was replaced
    assert len(pool.worker_pids()) == 2


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="crash tasks are registered in this module; workers must fork",
)
def test_mid_job_crash_retries_once(tmp_path):
    pool = PersistentIngestPool(workers=1, start_method="fork", idle_timeout=0.0)
    try:
        flag = tmp_path / "crash-once"
        flag.touch()
        spawned_before = pool.warm(1).spawn_count
        results = pool.map(
            "test_crash_once", [{"flag": str(flag), "value": 42}], workers=1
        )
        assert results == [42]  # the retry (flag consumed) succeeded
        assert pool.spawn_count == spawned_before + 1
        assert not flag.exists()
    finally:
        pool.shutdown()


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="crash tasks are registered in this module; workers must fork",
)
def test_double_crash_gives_up(tmp_path):
    pool = PersistentIngestPool(workers=1, start_method="fork", idle_timeout=0.0)
    try:
        with pytest.raises(RuntimeError, match="crashed its worker twice"):
            pool.map("test_crash_always", [{}], workers=1)
    finally:
        pool.shutdown()


def test_worker_exception_surfaces(pool):
    with pytest.raises(RuntimeError, match="pool task"):
        pool.map("fold", [{"hashes": None, "params": None}])


# -- fork safety ---------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
def test_fork_after_pool_resets_child_state():
    pool = PersistentIngestPool(workers=2, start_method="fork", idle_timeout=0.0)
    try:
        pool.warm(2)
        parent_pids = sorted(pool.worker_pids())
        child = os.fork()
        if child == 0:
            # Forked copy: inherited workers belong to the parent and must
            # be invisible; the child can still spawn and use its own.
            status = 0
            try:
                if pool.worker_pids():
                    status = 1
                if pool.spawn_count != 0:
                    status = 2
                hashes = random_hashes(11, 3000)
                folded = pool.fold_registers(
                    hashes, halves(len(hashes)), PARAMS, workers=2
                )
                if not np.array_equal(
                    folded, exaloglog_registers(hashes, PARAMS)
                ):
                    status = 3
                pool.shutdown()
            except BaseException:
                status = 4
            os._exit(status)
        _, exit_status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(exit_status) == 0
        # The parent's workers were untouched by the child's lifetime.
        assert sorted(pool.worker_pids()) == parent_pids
        hashes = random_hashes(13, 3000)
        folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
    finally:
        pool.shutdown()


# -- spawn transport -----------------------------------------------------------


def test_spawn_pool_fold_identical():
    pool = PersistentIngestPool(workers=2, start_method="spawn", idle_timeout=0.0)
    try:
        hashes = random_hashes(17, 10000)
        folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
        pids = sorted(pool.worker_pids())
        folded = pool.fold_registers(hashes, halves(len(hashes)), PARAMS, workers=2)
        assert np.array_equal(
            folded, exaloglog_registers(hashes, PARAMS)
        )
        assert sorted(pool.worker_pids()) == pids  # spawn workers persist too
    finally:
        pool.shutdown()


# -- shared-memory descriptors -------------------------------------------------


def test_shm_slice_sub_scales_offsets():
    item = ShmSlice("seg", 128, 100, "<u8")
    sub = item.sub(10, 30)
    assert sub == ShmSlice("seg", 128 + 10 * 8, 20, "<u8")


def test_attach_slice_passthrough():
    array = np.arange(5)
    assert np.array_equal(attach_slice(array), array)
    assert np.array_equal(attach_slice([1, 2, 3]), np.array([1, 2, 3]))


# -- higher-level entry points through the pool --------------------------------


def test_replay_many_matches_sequential(pool):
    from repro.simulation.events import simulate_event_schedule
    from repro.simulation.replay import replay, replay_many

    params = ExaLogLogParams(1, 9, 4)
    rng = np.random.Generator(np.random.PCG64(99))
    schedules = [
        simulate_event_schedule(params, 3000.0, rng, n_exact=200)
        for _ in range(3)
    ]
    checkpoints = [10.0, 100.0, 1000.0]
    sequential = [replay(s, params, checkpoints) for s in schedules]
    pooled = replay_many(schedules, params, checkpoints, workers=2, pool=pool)
    assert len(pooled) == len(sequential)
    for mine, theirs in zip(sequential, pooled):
        assert mine.registers == theirs.registers
        assert mine.ml_estimates == theirs.ml_estimates
        assert mine.martingale_estimates == theirs.martingale_estimates
        assert mine.alpha_scaled == theirs.alpha_scaled
        assert mine.beta == theirs.beta
