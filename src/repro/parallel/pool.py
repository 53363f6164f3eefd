"""Persistent shared-memory worker pool: the one transport of ``workers=``.

Every ``workers=`` entry point (the single-sketch fold fan-out and
simulation replays) runs its jobs here, so no call pays pool start-up or
hash pickling:

* **Persistent workers.** One module-level pool (:func:`get_pool`) keeps
  worker processes alive across calls — lazily spawned on first use,
  grown on demand, reaped after an idle timeout (``REPRO_POOL_IDLE``
  seconds, default 30), and shut down at interpreter exit. A crashed
  worker is detected (at dispatch time and mid-call), respawned, and its
  lost jobs retried once: every task is pure, so a retry cannot
  double-apply anything.
* **Shared-memory transport.** Hash batches travel through one reusable
  ``multiprocessing.shared_memory`` segment: the parent packs arrays
  into the segment (one memcpy), jobs carry only :class:`ShmSlice`
  descriptors, and workers map the segment and read **zero-copy** —
  identical cost under ``fork`` and ``spawn``.
* **Fork safety.** A pool object inherited through ``os.fork`` silently
  resets in the child: inherited worker handles, queues and segments
  belong to the parent and are abandoned (never closed or unlinked), and
  the child lazily spawns its own workers on first use.

Tasks are registered by name (:func:`pool_task`) as top-level functions,
so every ``multiprocessing`` start method works: the pool's
``start_method`` defaults to :func:`preferred_start_method` (fork where
the platform has it; Windows has only spawn). Worker folds run the same
kernel as the parent, which keeps the pool inside the library-wide
bit-identity contract.
"""

from __future__ import annotations

import atexit
import logging
import os
import queue
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import multiprocessing

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

logger = logging.getLogger(__name__)

#: Idle seconds after which the reaper thread retires the pool's workers.
DEFAULT_IDLE_TIMEOUT = 30.0

# Observability handles. Worker-side metrics accrued during a job (e.g.
# the backend fold counters) are drained after the task and shipped back
# through the existing result channel, then merged into the parent's
# registry — the same partial-state-then-merge scheme the sketches use.
_DISPATCH_SECONDS = _metrics.histogram(
    "pool.dispatch_seconds", "Wall seconds per pool map() dispatch."
)
_QUEUE_DEPTH = _metrics.gauge(
    "pool.queue_depth", "Jobs in flight during the current dispatch.", mode="max"
)
_JOBS = _metrics.counter("pool.jobs", "Jobs dispatched to pool workers.")
_WORKER_RESPAWNS = _metrics.counter(
    "pool.worker_respawns", "Workers respawned after an unexpected death."
)
_SHM_REUSE = _metrics.counter(
    "pool.shm_reuse", "Dispatches served by the already-allocated segment."
)
_SHM_ALLOC = _metrics.counter(
    "pool.shm_alloc", "Shared-memory segment (re)allocations."
)
_SHM_BYTES = _metrics.counter(
    "pool.shm_bytes_packed", "Bytes packed into the transport segment."
)

#: Worker-side cap on cached shared-memory attachments.
_ATTACH_CAP = 8

#: Alignment of packed arrays inside a segment (cache-line friendly).
_ALIGN = 64


def preferred_start_method() -> str:
    """The platform's cheapest safe start method (fork where available)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _idle_timeout_default() -> float:
    try:
        return float(os.environ.get("REPRO_POOL_IDLE", DEFAULT_IDLE_TIMEOUT))
    except ValueError:
        return DEFAULT_IDLE_TIMEOUT


# -- shared-memory slices ------------------------------------------------------


@dataclass(frozen=True)
class ShmSlice:
    """A 1-D array slice inside a named shared-memory segment."""

    name: str
    offset: int
    count: int
    dtype: str

    def sub(self, start: int, stop: int) -> "ShmSlice":
        """A sub-range of this slice (element units)."""
        itemsize = np.dtype(self.dtype).itemsize
        return ShmSlice(
            self.name, self.offset + start * itemsize, stop - start, self.dtype
        )


#: Worker-side attachment cache: segment name -> SharedMemory (LRU).
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _attach(name: str) -> shared_memory.SharedMemory:
    # Pre-3.13 attachment re-registers the segment with the resource
    # tracker, but multiprocessing children (fork AND spawn) inherit the
    # parent's tracker pipe, and its cache is a per-name set — so the
    # re-registration is idempotent there and the parent's unlink-time
    # unregister clears it. Unregistering here would instead clobber the
    # parent's legitimate registration in the shared tracker.
    segment = _ATTACHED.get(name)
    if segment is not None:
        _ATTACHED.move_to_end(name)
        return segment
    segment = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = segment
    while len(_ATTACHED) > _ATTACH_CAP:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except BufferError:  # a live view still points in; let GC finish it
            pass
    return segment


def attach_slice(item) -> np.ndarray:
    """Materialise a :class:`ShmSlice` as a zero-copy ndarray (worker side).

    Non-slice values (small arrays that travelled pickled) pass through.
    """
    if not isinstance(item, ShmSlice):
        return np.asarray(item)
    segment = _attach(item.name)
    return np.ndarray(
        (item.count,), dtype=np.dtype(item.dtype), buffer=segment.buf,
        offset=item.offset,
    )


# -- task registry -------------------------------------------------------------

_TASKS: dict = {}


def pool_task(name: str):
    """Register a top-level function as a pool task (picklable by name)."""

    def decorate(function):
        _TASKS[name] = function
        return function

    return decorate


@pool_task("fold")
def _task_fold(payload) -> np.ndarray:
    """Fold a hash slice into a fresh register array (pure, retryable)."""
    from repro.backends.bulk import exaloglog_registers

    return exaloglog_registers(attach_slice(payload["hashes"]), payload["params"])


@pool_task("replay")
def _task_replay(payload):
    """Replay one event schedule end to end (pure, retryable)."""
    from repro.simulation.events import EventSchedule
    from repro.simulation.replay import replay

    schedule = EventSchedule(
        times=attach_slice(payload["times"]),
        registers=attach_slice(payload["registers"]),
        values=attach_slice(payload["values"]),
        n_exact=payload["n_exact"],
    )
    return replay(
        schedule,
        payload["params"],
        payload["checkpoints"],
        bias_correction=payload["bias_correction"],
    )


def _worker_main(job_queue, result_queue) -> None:
    """Worker loop: run registry tasks until the ``None`` sentinel.

    Jobs carry the parent's metrics-enabled flag (a parent that called
    :func:`repro.obs.metrics.enable` programmatically has no environment
    variable for a spawn worker to inherit). When set, the worker
    collects during the task and ships its *drained* registry — deltas,
    so repeated jobs merge additively in the parent without double
    counting — as the fourth element of the result tuple.
    """
    # A fork-started worker inherits the parent registry's *values* at
    # fork time; shipping those back would double count the parent's own
    # work. Start from zero — only this worker's deltas ever ship.
    _metrics.REGISTRY.reset()
    while True:
        job = job_queue.get()
        if job is None:
            break
        job_id, task_name, payload, obs = job
        if obs and not _metrics.enabled():
            _metrics.enable()
        try:
            result = _TASKS[task_name](payload)
        except Exception as exc:  # surfaced in the parent as RuntimeError
            import traceback

            result_queue.put(
                (job_id, False, f"{exc!r}\n{traceback.format_exc()}", None)
            )
        else:
            captured = _metrics.drain() if obs else None
            result_queue.put((job_id, True, result, captured))


# -- the pool ------------------------------------------------------------------


class _Worker:
    __slots__ = ("job_queue", "process")

    def __init__(self, context, result_queue) -> None:
        self.job_queue = context.SimpleQueue()
        self.process = context.Process(
            target=_worker_main,
            args=(self.job_queue, result_queue),
            daemon=True,
            name="repro-pool-worker",
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


_POOLS: "weakref.WeakSet[PersistentIngestPool]" = weakref.WeakSet()


@atexit.register
def _shutdown_all_pools() -> None:  # pragma: no cover - exit path
    for pool in list(_POOLS):
        try:
            pool.shutdown()
        except Exception:
            pass


class PersistentIngestPool:
    """A lazily-spawned, idle-reaped, crash-respawning worker pool.

    One instance serves arbitrarily many calls; workers and the transport
    segment persist between them (the whole point — warm calls skip both
    pool start-up and hash pickling). Calls are serialised by an internal
    lock; the pool grows to the largest ``workers`` ever requested.
    """

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._default_workers = workers or os.cpu_count() or 1
        self._start_method = start_method or preferred_start_method()
        self._idle_timeout = (
            _idle_timeout_default() if idle_timeout is None else float(idle_timeout)
        )
        self._context = multiprocessing.get_context(self._start_method)
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._result_queue = None
        self._segment: shared_memory.SharedMemory | None = None
        self._job_counter = 0
        self._spawn_count = 0
        self._respawn_count = 0
        self._last_used = time.monotonic()
        self._owner_pid = os.getpid()
        self._reaper: threading.Thread | None = None
        _POOLS.add(self)

    # -- lifecycle -------------------------------------------------------------

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def spawn_count(self) -> int:
        """Total workers ever spawned (reuse shows as a constant count)."""
        return self._spawn_count

    @property
    def respawn_count(self) -> int:
        """Workers respawned after dying unexpectedly (0 in healthy runs)."""
        return self._respawn_count

    def worker_pids(self) -> list[int]:
        """PIDs of the currently-live workers."""
        self._check_fork()
        with self._lock:
            return [w.process.pid for w in self._workers if w.alive]

    def warm(self, workers: int | None = None) -> "PersistentIngestPool":
        """Ensure at least ``workers`` live worker processes exist."""
        self._check_fork()
        with self._lock:
            self._ensure_workers_locked(workers or self._default_workers)
            self._last_used = time.monotonic()
        return self

    def shutdown(self) -> None:
        """Stop all workers and release the transport segment.

        The pool object stays usable — the next call respawns lazily.
        """
        if os.getpid() != self._owner_pid:
            return  # inherited through fork: nothing here is ours to stop
        with self._lock:
            self._stop_workers_locked()
            self._release_segment_locked()

    def _check_fork(self) -> None:
        """Reset state inherited through ``os.fork`` (child side)."""
        if os.getpid() == self._owner_pid:
            return
        # Everything below belongs to the parent: abandon, don't close.
        self._lock = threading.Lock()
        self._workers = []
        self._result_queue = None
        self._segment = None
        self._job_counter = 0
        self._spawn_count = 0
        self._respawn_count = 0
        self._owner_pid = os.getpid()
        self._reaper = None

    def _ensure_workers_locked(self, count: int) -> None:
        # Spawn the resource tracker BEFORE any worker forks: on Linux no
        # tracker exists until the first SharedMemory is created (which
        # happens after the workers are alive), so forked workers would
        # each launch a private tracker on their first attach — and those
        # trackers would warn about "leaked" segments the parent has long
        # unlinked. Forking after ensure_running shares the parent's.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        if self._result_queue is None:
            self._result_queue = self._context.Queue()
        for slot, worker in enumerate(self._workers):
            if not worker.alive:
                self._note_respawn(slot, worker.process.exitcode)
                self._workers[slot] = _Worker(self._context, self._result_queue)
                self._spawn_count += 1
        while len(self._workers) < count:
            self._workers.append(_Worker(self._context, self._result_queue))
            self._spawn_count += 1
        if self._reaper is None and self._idle_timeout > 0:
            self._reaper = threading.Thread(
                target=self._reap_idle_loop,
                name="repro-pool-reaper",
                daemon=True,
            )
            self._reaper.start()

    def _note_respawn(self, slot: int, exitcode) -> None:
        """Make a worker death visible: warning log + respawn counter."""
        self._respawn_count += 1
        _WORKER_RESPAWNS.inc()
        logger.warning(
            "pool worker in slot %d died unexpectedly (exit code %s); "
            "respawning (respawn #%d of this pool)",
            slot,
            exitcode,
            self._respawn_count,
        )

    def _stop_workers_locked(self) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            if worker.alive:
                try:
                    worker.job_queue.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.alive:
                worker.process.terminate()
                worker.process.join(1.0)
        if self._result_queue is not None:
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
            self._result_queue = None

    def _release_segment_locked(self) -> None:
        if self._segment is not None:
            try:
                self._segment.close()
                self._segment.unlink()
            except Exception:
                pass
            self._segment = None

    def _reap_idle_loop(self) -> None:  # pragma: no cover - timing loop
        interval = max(0.05, min(1.0, self._idle_timeout / 4.0))
        while True:
            time.sleep(interval)
            if os.getpid() != self._owner_pid:
                return  # forked copy: the thread does not exist here anyway
            with self._lock:
                if not self._workers:
                    continue
                if time.monotonic() - self._last_used >= self._idle_timeout:
                    self._stop_workers_locked()
                    self._release_segment_locked()

    # -- transport -------------------------------------------------------------

    def _pack_locked(self, arrays: Sequence[np.ndarray]) -> list[ShmSlice]:
        """Copy arrays into the reusable segment; return their descriptors.

        The previous call's results were consumed before this runs (calls
        are synchronous), so overwriting / replacing the segment is safe;
        a replaced segment is unlinked and lives on only for workers that
        still hold it mapped.
        """
        arrays = [np.ascontiguousarray(a) for a in arrays]
        total = sum(-(-a.nbytes // _ALIGN) * _ALIGN for a in arrays)
        if self._segment is None or self._segment.size < total:
            self._release_segment_locked()
            self._segment = shared_memory.SharedMemory(
                create=True, size=max(total, 1)
            )
            _SHM_ALLOC.inc()
        else:
            _SHM_REUSE.inc()
        _SHM_BYTES.inc(total)
        slices: list[ShmSlice] = []
        offset = 0
        for array in arrays:
            if array.ndim != 1:
                array = array.reshape(-1)
            view = np.ndarray(
                array.shape, array.dtype, buffer=self._segment.buf, offset=offset
            )
            view[...] = array
            slices.append(
                ShmSlice(self._segment.name, offset, array.size, array.dtype.str)
            )
            offset += -(-array.nbytes // _ALIGN) * _ALIGN
        return slices

    # -- dispatch --------------------------------------------------------------

    def map(self, task: str, payloads, workers: int | None = None) -> list:
        """Run registry task ``task`` over ``payloads``; ordered results.

        Tasks must be pure: a job whose worker dies is retried once.
        Payloads must be picklable; large arrays should be packed via the
        higher-level entry points (which hold the lock across pack+map so
        the segment cannot be repacked mid-flight).
        """
        self._check_fork()
        payloads = list(payloads)
        if not payloads:
            return []
        with self._lock:
            return self._map_locked(task, payloads, workers)

    def _map_locked(self, task, payloads, workers) -> list:
        count = min(workers or self._default_workers, len(payloads))
        self._ensure_workers_locked(count)
        active = self._workers[:count]
        results = [None] * len(payloads)
        pending: dict[int, tuple[int, int, object]] = {}
        attempts: dict[int, int] = {}
        obs = _metrics.enabled()
        started = time.perf_counter() if obs else 0.0
        for position, payload in enumerate(payloads):
            job_id = self._job_counter
            self._job_counter += 1
            slot = position % count
            pending[job_id] = (slot, position, payload)
            attempts[job_id] = 1
            active[slot].job_queue.put((job_id, task, payload, obs))
        if obs:
            _JOBS.inc(len(payloads))
            _QUEUE_DEPTH.set(len(pending))
        with _trace.span("pool.map", task=task, jobs=len(payloads)):
            while pending:
                try:
                    job_id, ok, value, captured = self._result_queue.get(
                        timeout=0.1
                    )
                except (queue.Empty, EOFError, OSError):
                    self._handle_dead_locked(task, pending, attempts, count, obs)
                    continue
                if captured:
                    # Worker-side deltas merge like partial sketches do.
                    _metrics.merge_snapshot(captured)
                if job_id not in pending:
                    continue  # duplicate from a retried-then-completed job
                if not ok:
                    raise RuntimeError(
                        f"pool task {task!r} failed in worker:\n{value}"
                    )
                _, position, _ = pending.pop(job_id)
                results[position] = value
        if obs:
            _QUEUE_DEPTH.set(0)
            _DISPATCH_SECONDS.observe(time.perf_counter() - started)
        self._last_used = time.monotonic()
        return results

    def _handle_dead_locked(self, task, pending, attempts, count,
                            obs: bool = False):
        """Respawn crashed workers; re-dispatch their lost jobs once."""
        dead_slots = [
            slot for slot in range(count) if not self._workers[slot].alive
        ]
        if not dead_slots:
            return
        # Results a worker emitted before dying are already queued; drain
        # them first so only genuinely lost jobs are attributed.
        drained = []
        while True:
            try:
                drained.append(self._result_queue.get_nowait())
            except (queue.Empty, EOFError, OSError):
                break
        for item in drained:
            job_id = item[0]
            if job_id in pending:
                # Push back through the normal path by re-queueing.
                self._result_queue.put(item)
        queued_ids = {item[0] for item in drained}
        for slot in dead_slots:
            exitcode = self._workers[slot].process.exitcode
            self._note_respawn(slot, exitcode)
            self._workers[slot] = _Worker(self._context, self._result_queue)
            self._spawn_count += 1
            lost = [
                job_id
                for job_id, (job_slot, _, _) in pending.items()
                if job_slot == slot and job_id not in queued_ids
            ]
            for job_id in lost:
                if attempts[job_id] >= 2:
                    raise RuntimeError(
                        f"pool task {task!r} crashed its worker twice "
                        f"(exit code {exitcode}); giving up"
                    )
                attempts[job_id] += 1
                _, position, payload = pending[job_id]
                pending[job_id] = (slot, position, payload)
                self._workers[slot].job_queue.put((job_id, task, payload, obs))

    # -- wired entry points ----------------------------------------------------

    def fold_registers(self, hashes: np.ndarray, bounds, params,
                       workers: int | None = None) -> np.ndarray:
        """Fold slice bounds of ``hashes`` across workers; merged result.

        Bit-identical to the sequential ``exaloglog_registers`` fold: the
        per-slice partials merge with the exact Algorithm 5 reduction.
        """
        from repro.backends.bulk import merge_exaloglog_registers

        self._check_fork()
        with self._lock:
            base = self._pack_locked([hashes])[0]
            payloads = [
                {"hashes": base.sub(start, stop), "params": params}
                for start, stop in bounds
            ]
            partials = self._map_locked("fold", payloads, workers or len(payloads))
        reduced = partials[0]
        for partial in partials[1:]:
            reduced = merge_exaloglog_registers(reduced, partial, params.d)
        return reduced

    def replay_schedules(self, schedules, params, checkpoints,
                         bias_correction: bool = True,
                         workers: int | None = None) -> list:
        """Replay independent event schedules across the pool (in order)."""
        self._check_fork()
        with self._lock:
            arrays: list[np.ndarray] = []
            for schedule in schedules:
                arrays.extend(
                    (schedule.times, schedule.registers, schedule.values)
                )
            slices = self._pack_locked(arrays)
            payloads = [
                {
                    "times": slices[3 * i],
                    "registers": slices[3 * i + 1],
                    "values": slices[3 * i + 2],
                    "n_exact": schedule.n_exact,
                    "params": params,
                    "checkpoints": tuple(checkpoints),
                    "bias_correction": bias_correction,
                }
                for i, schedule in enumerate(schedules)
            ]
            return self._map_locked("replay", payloads, workers or len(payloads))

    def __repr__(self) -> str:
        return (
            f"PersistentIngestPool(workers={self._default_workers}, "
            f"start_method={self._start_method!r}, "
            f"live={len(self._workers)}, spawned={self._spawn_count})"
        )


# -- module-level default pool -------------------------------------------------

_DEFAULT_POOL: PersistentIngestPool | None = None
_DEFAULT_LOCK = threading.Lock()


def get_pool() -> PersistentIngestPool:
    """The process-wide default pool (created lazily, fork-safe)."""
    global _DEFAULT_POOL
    if _DEFAULT_POOL is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_POOL is None:
                _DEFAULT_POOL = PersistentIngestPool()
    return _DEFAULT_POOL


def shutdown_default_pool() -> None:
    """Stop the default pool's workers (it respawns lazily if used again)."""
    pool = _DEFAULT_POOL
    if pool is not None:
        pool.shutdown()
