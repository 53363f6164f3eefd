"""Cache-blocked kernel backend for the ExaLogLog fold and merge.

Same math as :mod:`repro.backends.bulk` — Algorithm 2 set-wise, Algorithm 5
merge — restructured for raw speed:

* **Preallocated per-thread workspaces.** The reference fold materialises
  ~10 temporaries per chunk (every ``>>``, ``&``, ``|`` allocates). Here
  each elementwise pass writes into a reused buffer (``out=``), so a fold
  allocates the per-chunk scratch once per thread instead of per chunk.
  Measured ~1.9x on the split stage, 1.1–1.9x end to end depending on
  precision.
* **Cache-blocked chunking.** The merge between chunk folds is O(m), so
  the best chunk size grows with the register count: ``pick_chunk(m)``
  uses ``max(2**16, min(2**20, 64 * m))`` hashes per chunk — small
  registers amortise scatter setup, large registers amortise the merge.
  Chunk folds merge exactly (Algorithm 5), so blocking never changes the
  result.

The backend keeps the library's core contract: results are bit-identical
to the scalar ``add_hash`` loop (asserted by ``tests/invariants``).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends.bitops import as_hash_array
from repro.core.params import ExaLogLogParams

_U64 = np.uint64


def pick_chunk(m: int) -> int:
    """Cache-block size (hashes per chunk) for a fold over ``m`` registers.

    Inter-chunk merges cost O(m); scatter targets cost O(m) cache
    footprint. Scaling the chunk with m (clamped to [2**16, 2**20])
    measured faster than any fixed size at every precision tested.
    """
    return max(1 << 16, min(1 << 20, 64 * m))


class _FoldWorkspace:
    """Per-thread scratch for the blocked fold (all passes write in place)."""

    __slots__ = ("bools", "capacity", "index", "k", "u64a", "u64b")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.u64a = np.empty(capacity, dtype=_U64)
        self.u64b = np.empty(capacity, dtype=_U64)
        self.index = np.empty(capacity, dtype=np.int64)
        self.k = np.empty(capacity, dtype=np.int64)
        self.bools = np.empty((2, capacity), dtype=bool)


_LOCAL = threading.local()


def _workspace(capacity: int) -> _FoldWorkspace:
    workspace = getattr(_LOCAL, "fold", None)
    if workspace is None or workspace.capacity < capacity:
        workspace = _FoldWorkspace(capacity)
        _LOCAL.fold = workspace
    return workspace


def release_workspaces() -> None:
    """Drop this thread's cached fold buffers (frees up to ~35 MB)."""
    _LOCAL.fold = None


def _split_into(hashes: np.ndarray, params: ExaLogLogParams, ws: _FoldWorkspace):
    """Algorithm 2 front end into workspace buffers; returns (index, k) views."""
    n = len(hashes)
    a = ws.u64a[:n]
    b = ws.u64b[:n]
    index = ws.index[:n]
    k = ws.k[:n]
    t = params.t
    np.right_shift(hashes, _U64(t), out=a)
    np.bitwise_and(a, _U64(params.m - 1), out=a)
    np.copyto(index, a, casting="unsafe")
    np.bitwise_or(hashes, _U64((1 << (params.p + t)) - 1), out=b)
    for shift in (1, 2, 4, 8, 16, 32):  # in-place bit smear (bit_length)
        b |= b >> _U64(shift)
    np.bitwise_count(b, out=a)
    np.copyto(k, a, casting="unsafe")
    np.subtract(np.int64(64), k, out=k)  # nlz
    if t:
        np.left_shift(k, t, out=k)
        np.bitwise_and(hashes, _U64((1 << t) - 1), out=b)
        low = ws.u64a[:n].view(np.int64)[:n]
        np.copyto(low, b, casting="unsafe")
        np.add(k, low, out=k)
    np.add(k, np.int64(1), out=k)
    return index, k


def _fold_pairs(
    index: np.ndarray, k: np.ndarray, params: ExaLogLogParams, ws: _FoldWorkspace
) -> np.ndarray:
    """Fold (register, update value) pairs into a fresh register array.

    Identical formulas to the reference ``exaloglog_registers_from_pairs``,
    with the per-event gathers/comparisons running in workspace buffers.
    ``index``/``k`` may be workspace views from :func:`_split_into`; only
    the uint64/bool scratch is written here.
    """
    m, d = params.m, params.d
    n = len(index)
    u = np.zeros(m, dtype=np.int64)
    np.maximum.at(u, index, k)
    low = np.zeros(m, dtype=np.int64)
    if d > 0 and n:
        u_at = ws.u64a[:n].view(np.int64)[:n]
        np.take(u, index, out=u_at)
        threshold = ws.u64b[:n].view(np.int64)[:n]
        np.subtract(u_at, np.int64(d), out=threshold)
        in_window = ws.bools[0, :n]
        above = ws.bools[1, :n]
        np.less(k, u_at, out=in_window)
        np.greater_equal(k, threshold, out=above)
        np.logical_and(in_window, above, out=in_window)
        selected = np.flatnonzero(in_window)
        if selected.size:
            positions = d - (u_at[selected] - k[selected])
            np.bitwise_or.at(low, index[selected], np.int64(1) << positions)
    if d > 0:
        phantom = (u >= 1) & (u <= d)
        low[phantom] |= np.int64(1) << (d - u[phantom])
    np.left_shift(u, np.int64(d), out=u)
    np.bitwise_or(u, low, out=u)
    return u


class FastBulkBackend:
    """Cache-blocked kernel backend (bit-identical to the reference)."""

    __slots__ = ()

    #: The registry name (:func:`repro.backends.set_backend`).
    name = "fast"

    def fold(self, hashes, params: ExaLogLogParams) -> np.ndarray:
        """Fresh register array for a hash batch (= ``exaloglog_registers``)."""
        hashes = as_hash_array(hashes)
        n = len(hashes)
        if n == 0:
            return np.zeros(params.m, dtype=np.int64)
        chunk = pick_chunk(params.m)
        workspace = _workspace(min(chunk, n))
        registers = None
        for start in range(0, n, chunk):
            part = hashes[start : start + chunk]
            index, k = _split_into(part, params, workspace)
            batch = _fold_pairs(index, k, params, workspace)
            if registers is None:
                registers = batch
            else:
                registers = self.merge_registers(registers, batch, params.d)
        return registers

    def registers_from_pairs(
        self, index: np.ndarray, k: np.ndarray, params: ExaLogLogParams
    ) -> np.ndarray:
        """Fold explicit pairs (= ``exaloglog_registers_from_pairs``)."""
        index = np.ascontiguousarray(index, dtype=np.int64).reshape(-1)
        k = np.ascontiguousarray(k, dtype=np.int64).reshape(-1)
        n = len(index)
        if n == 0:
            return np.zeros(params.m, dtype=np.int64)
        chunk = pick_chunk(params.m)
        workspace = _workspace(min(chunk, n))
        registers = None
        # Chunked pair folds merge exactly (each chunk is the sequential
        # state of its events; Algorithm 5 joins them to the state of the
        # concatenation), so blocking is invisible here too.
        for start in range(0, n, chunk):
            batch = _fold_pairs(
                index[start : start + chunk], k[start : start + chunk],
                params, workspace,
            )
            if registers is None:
                registers = batch
            else:
                registers = self.merge_registers(registers, batch, params.d)
        return registers

    def merge_registers(self, existing, batch, d: int) -> np.ndarray:
        """Vectorised Algorithm 5 (= ``merge_exaloglog_registers``)."""
        r1 = np.asarray(existing, dtype=np.int64)
        r2 = np.asarray(batch, dtype=np.int64)
        out = np.bitwise_or(r1, r2)
        u1 = np.right_shift(r1, np.int64(d))
        u2 = np.right_shift(r2, np.int64(d))
        window = np.int64((1 << d) - 1)
        implicit = np.int64(1 << d)
        # Compressed lanes: only registers where one side's window must
        # shift under the other's maximum do any arithmetic.
        selected = np.flatnonzero((u1 > u2) & (u2 > 0))
        if selected.size:
            delta = np.minimum(u1[selected] - u2[selected], d + 1)
            out[selected] = r1[selected] | (
                (implicit + (r2[selected] & window)) >> delta
            )
        selected = np.flatnonzero((u2 > u1) & (u1 > 0))
        if selected.size:
            delta = np.minimum(u2[selected] - u1[selected], d + 1)
            out[selected] = r2[selected] | (
                (implicit + (r1[selected] & window)) >> delta
            )
        return out

    def __repr__(self) -> str:
        return "FastBulkBackend()"
