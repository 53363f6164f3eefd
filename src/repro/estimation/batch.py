"""Vectorised batch estimation engine (paper Alg. 3 + Alg. 8, many sketches).

The scalar estimation pipeline — :func:`repro.core.mlestimation.compute_coefficients`
(Algorithm 3) followed by :func:`repro.estimation.newton.solve_ml_equation`
(Algorithm 8) — walks every register in Python and solves one sketch at a
time. This module computes the same quantities with NumPy:

* :func:`register_coefficients` extracts the ``(alpha, beta)`` coefficients
  of Eq. (15) for a whole ``(k, m)`` register matrix at once. The
  ``alpha' = alpha * 2**(64-p)`` accumulation stays exact integer
  arithmetic: every contribution is added modulo ``2**64`` in uint64, and
  since the true total lies in ``[0, 2**64]`` (the endpoint only for a row
  of all-initial registers, which the ``beta``-is-empty mask handles before
  alpha is ever used), the wrapped value equals the exact value for every
  non-empty row. Window-bit counting uses either packed per-half count
  LUTs (``d <= 24``) or a per-offset loop, both integer-exact.

* :func:`solve_ml_equations` runs Algorithm 8 on every row of a
  ``(k, u)`` beta matrix. Up to :data:`SCALAR_SOLVE_ROWS` rows (a point
  read is one) go row by row through the scalar solver; larger calls
  iterate all rows simultaneously with a convergence mask. Every float
  operation is performed per row in exactly the scalar solver's order,
  so results are bit-identical — including the two transcendental steps
  (the Lemma B.3 starting point and the final ``log1p``), which go
  through ``math.*`` per row because NumPy's SIMD ``expm1``/``log1p`` may
  differ from libm in the last ulp.

* :func:`batch_estimate_sketches` estimates a mixed collection of
  sketches — dense ExaLogLog registers, sparse token mode, several
  parameterisations — in chunks of :data:`ESTIMATE_CHUNK_ROWS` rows, one
  solve per chunk. Token-mode rows get Algorithm 7's coefficients from one
  ``bincount`` over (row, j) per chunk, with no per-token Python loop.

The contract, asserted by the equivalence tests and by
``benchmarks/bench_estimate.py``: batched estimates equal the scalar
pipeline bit for bit, including ``saturated`` (infinite) and empty rows.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.core.distribution import omega_scaled_table, phi_table
from repro.core.params import ExaLogLogParams
from repro.estimation.newton import MAX_ITERATIONS, solve_ml_equation
from repro.obs import metrics as _metrics

_U64 = np.uint64

_SOLVE_BATCH_SIZE = _metrics.histogram(
    "estimation.solve_batch_size",
    "Rows per simultaneous ML-equation solve.",
)
_NEWTON_ITERATIONS = _metrics.histogram(
    "estimation.newton_iterations",
    "Newton iterations per solved row.",
    buckets=tuple(float(i) for i in range(1, 33)),
)

#: Columns of the beta matrices: exponents ``u`` in ``[0, 65]`` (dense
#: registers use at most ``64 - p <= 62``, hash tokens at most 64).
EXPONENT_AXIS = 66

# The packed-LUT window path applies for d in [4, 24] (half patterns of at
# most 12 bits), t >= 1 (window chunks of >= 2 update values), and
# p <= 18 (so packed per-(row, u) count sums stay exact in float64).
_LUT_MAX_D = 24
_LUT_MAX_P = 18
_LUT_HALF_BITS = 12

#: Rows are processed in chunks of about this many register values so the
#: ~10 temporary arrays of a chunk stay cache-resident (same rationale as
#: ``repro.backends.bulk.BULK_CHUNK``; results are per-row, so chunking
#: never changes them).
_CHUNK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class BatchCoefficients:
    """Per-row (alpha, beta) coefficients of Eq. (15) for ``k`` sketches."""

    alpha: np.ndarray
    """float64 ``(k,)``: ``alpha_scaled / 2**(64-p)`` (exactly rounded)."""

    alpha_scaled: np.ndarray
    """uint64 ``(k,)``: exact ``alpha * 2**(64-p)`` modulo ``2**64``.

    Equals the scalar Algorithm 3 integer for every non-empty row; an
    all-initial row wraps its true value ``2**64`` to 0 (masked by
    :attr:`is_empty` before use).
    """

    beta: np.ndarray
    """int64 ``(k, EXPONENT_AXIS)``: counts ``beta_u`` keyed by exponent."""

    @property
    def is_empty(self) -> np.ndarray:
        """Rows where all registers were in the initial state."""
        return ~(self.beta > 0).any(axis=1)

    @property
    def is_saturated(self) -> np.ndarray:
        """Non-empty rows whose alpha vanished (estimate infinite)."""
        return (self.alpha_scaled == _U64(0)) & ~self.is_empty


@dataclass(frozen=True)
class BatchMLSolution:
    """Per-row result of a simultaneous ML equation solve."""

    nu: np.ndarray
    """float64 ``(k,)``: estimated Poisson rate per register."""

    iterations: np.ndarray
    """int64 ``(k,)``: Newton iterations performed per row."""

    saturated: np.ndarray
    """bool ``(k,)``: rows where alpha was zero (estimate infinite)."""


# -- Algorithm 3, vectorised ---------------------------------------------------

_MOD64 = 1 << 64


def _as_int64(value: int) -> int:
    """Reduce a Python int modulo ``2**64`` into int64's two's complement."""
    value &= _MOD64 - 1
    return value - _MOD64 if value >= (1 << 63) else value


@dataclass(frozen=True)
class _RegisterPlan:
    """Precomputed per-parameter tables for the LUT window path.

    The window bit at offset ``j`` (register bit ``d - j``) records update
    value ``k = u - j``, whose likelihood exponent is determined by the
    chunk ``(k - 1) >> t``. The chunk *offset* ``rel`` relative to the
    chunk of ``k = u - 1`` depends only on ``j`` and the alignment
    ``a = (u - 2) mod 2**t`` — so per <=12-bit half of the window field,
    one lookup indexed by ``(a, half pattern)`` yields the set-bit count
    of every chunk offset at once. Counts are packed into per-half
    *slots* (one per ``rel``), several slots per float64 word, with a
    spacing chosen so bincount's float summation stays integer-exact.

    Everything u-dependent is a gather table here, and the whole alpha
    accumulation collapses to two einsums per row chunk:

        alpha = sum_u hist[u] * weight[u] - sum_e rho[e] * window_beta[e]

    where ``weight[u] = omega'(u) + sum of rho over u's valid window
    positions`` (all exact integers modulo ``2**64``).
    """

    slot_mask: int
    """``2**spacing - 1`` for the per-word slot spacing."""

    halves: tuple
    """Per half: ``(j0, width, words)`` where each word is
    ``(lut, ((offset, e_map), ...))`` — a float64 gather table plus its
    packed slots' bit offsets and per-u exponent maps (-1 where the slot
    holds no valid window position of u)."""

    vmask: object
    """Per u: mask keeping the top ``min(d, u-1)`` valid window bits."""

    weight: object
    """Per u (int64, mod 2**64): ``omega'(u)`` plus the valid-window mass."""

    rho_exp: object
    """Per exponent e (int64, mod 2**64): ``2**(shift - e)``."""


@lru_cache(maxsize=32)
def _register_plan(params: ExaLogLogParams):
    """Build the LUT window plan, or None where the generic loop applies."""
    d, t, p = params.d, params.t, params.p
    if not (t >= 1 and 4 <= d <= _LUT_MAX_D and p <= _LUT_MAX_P):
        return None
    chunk = 1 << t
    shift = 64 - p
    m = params.m
    u_cap = params.max_update_value

    # Packing: no inter-slot carries needs m * 2**t < 2**spacing (a slot's
    # per-(row, u) count is at most 2**t bits per register times m); exact
    # float64 bucket sums need m * 2**t * 2**(spacing * (slots-1)) <= 2**53.
    spacing = max(12, (m << t).bit_length())
    slots_per_word = 4
    while (m << t) << (spacing * (slots_per_word - 1)) > (1 << 53):
        slots_per_word -= 1

    table_dtype = np.int32 if params.register_bits <= 31 else np.int64
    halves = []
    j0 = 0
    while j0 < d:
        width = min(_LUT_HALF_BITS, d - j0)
        # Chunk offsets (rel) this half can produce, each its own slot.
        rels = sorted(
            {
                -((a - j + 1) >> t)
                for a in range(chunk)
                for j in range(j0 + 1, j0 + width + 1)
            }
        )
        slot_of = {rel: s for s, rel in enumerate(rels)}
        nwords = (len(rels) + slots_per_word - 1) // slots_per_word
        luts = [np.zeros(chunk << width, dtype=np.float64) for _ in range(nwords)]
        pattern = np.arange(1 << width, dtype=np.int64)
        for a in range(chunk):
            base = a << width
            for q in range(width):
                j = j0 + width - q
                s = slot_of[-((a - j + 1) >> t)]
                luts[s // slots_per_word][base : base + (1 << width)] += (
                    (pattern >> q) & 1
                ) * float(1 << (spacing * (s % slots_per_word)))
        # Per (half, rel): the exponent each u value's counts feed, or -1
        # when the slot holds none of u's valid window positions.
        e_maps = {rel: np.full(u_cap + 1, -1, dtype=np.int16) for rel in rels}
        for uv in range(2, u_cap + 1):
            a = (uv - 2) & (chunk - 1)
            c0 = (uv - 2) >> t
            for j in range(j0 + 1, min(j0 + width, min(d, uv - 1)) + 1):
                rel = -((a - j + 1) >> t)
                e_maps[rel][uv] = min(t + 1 + c0 - rel, 64 - p)
        words = []
        for w, lut in enumerate(luts):
            lut.setflags(write=False)
            slots = []
            for s in range(w * slots_per_word, min((w + 1) * slots_per_word, len(rels))):
                e_map = e_maps[rels[s]]
                e_map.setflags(write=False)
                slots.append((spacing * (s % slots_per_word), e_map))
            words.append((lut, tuple(slots)))
        halves.append((j0, width, tuple(words)))
        j0 += width

    omegas = omega_scaled_table(params)
    vmask = np.zeros(u_cap + 1, dtype=table_dtype)
    weight = np.zeros(u_cap + 1, dtype=np.int64)
    for uv in range(u_cap + 1):
        n_valid = min(d, max(uv - 1, 0))
        vmask[uv] = ((1 << d) - 1) ^ ((1 << (d - n_valid)) - 1)
        total = int(omegas[uv])
        if uv >= 2:
            a = (uv - 2) & (chunk - 1)
            c0 = (uv - 2) >> t
            for j in range(1, n_valid + 1):
                rel = -((a - j + 1) >> t)
                e = min(t + 1 + c0 - rel, 64 - p)
                total += 1 << (shift - e)
        weight[uv] = _as_int64(total)
    rho_exp = np.zeros(EXPONENT_AXIS, dtype=np.int64)
    for e in range(t + 1, 64 - p + 1):
        rho_exp[e] = _as_int64(1 << (shift - e))
    for array in (vmask, weight, rho_exp):
        array.setflags(write=False)
    return _RegisterPlan(
        slot_mask=(1 << spacing) - 1,
        halves=tuple(halves),
        vmask=vmask,
        weight=weight,
        rho_exp=rho_exp,
    )


@lru_cache(maxsize=32)
def _omega_vector(params: ExaLogLogParams):
    """``omega'(u)`` as an int64 mod-2**64 vector (generic path's weights)."""
    omegas = omega_scaled_table(params)
    vector = np.fromiter(
        (_as_int64(value) for value in omegas), dtype=np.int64, count=len(omegas)
    )
    vector.setflags(write=False)
    return vector


def _window_loop(mat, key, hist, occupied, params, alpha, beta_t):
    """Generic window accumulation: one vectorised pass per offset ``j``.

    Covers parameterisations outside the LUT plan (tiny or huge ``d``,
    ``t = 0``, ``p > 18``). ``hist`` and the set-count matrices use the
    transposed ``(n_exp, rows)`` layout; alpha contributions collapse
    into one mod-``2**64`` int64 einsum per offset.
    """
    d = params.d
    shift = 64 - params.p
    phis = phi_table(params)
    n_exp, rows = hist.shape
    dtype = mat.dtype.type
    for j in range(1, min(d, n_exp - 2) + 1):
        bits = (mat >> dtype(d - j)) & dtype(1)
        sets = np.bincount(
            key, weights=bits.ravel(), minlength=rows * n_exp
        ).reshape(n_exp, rows).astype(np.int64)
        rho = np.zeros(n_exp, dtype=np.int64)
        for uv in occupied:
            if uv - j < 1:
                continue
            e = phis[uv - j]
            rho[uv] = _as_int64(1 << (shift - e))
            beta_t[e] += sets[uv]
        # alpha += sum_u rho_u * (hist_u - sets_u), exact modulo 2**64
        alpha += np.einsum("uk,u->k", hist, rho)
        alpha -= np.einsum("uk,u->k", sets, rho)


class _ChunkWorkspace:
    """Reusable scratch buffers for the per-chunk extraction passes.

    Every elementwise pass writes into a preallocated buffer (``out=``),
    so processing a large matrix allocates once instead of churning
    multi-megabyte temporaries on every chunk.
    """

    __slots__ = ("capacity", "gathered", "i32", "key", "m", "scratch", "window_beta")

    def __init__(self, rows: int, m: int, dtype) -> None:
        self.capacity = rows
        self.m = m
        self.i32 = np.empty((4, rows, m), dtype=dtype)
        self.key = np.empty((rows, m), dtype=np.int64)
        self.gathered = np.empty(rows * m, dtype=np.float64)
        self.scratch = np.empty((rows, m), dtype=dtype)
        self.window_beta = np.empty((EXPONENT_AXIS, rows), dtype=np.int64)

    def views(self, rows: int):
        """Buffer views trimmed to the (possibly short, final) chunk."""
        return (
            self.i32[:, :rows],
            self.key[:rows],
            self.gathered[: rows * self.m],
            self.scratch[:rows],
            self.window_beta[:, :rows],
        )


_WORKSPACE_LOCAL = threading.local()


def _chunk_workspace(rows: int, m: int, dtype) -> _ChunkWorkspace:
    """Thread-cached :class:`_ChunkWorkspace`, reused across calls.

    Query serving solves many batches with the same sketch geometry, so
    the multi-megabyte scratch buffers are cached per thread (keyed on
    shape/dtype compatibility) instead of reallocated per
    :func:`register_coefficients` call. Buffers are trimmed via
    :meth:`_ChunkWorkspace.views`, so a larger cached capacity serves
    smaller batches unchanged.
    """
    dtype = np.dtype(dtype)
    cached = getattr(_WORKSPACE_LOCAL, "workspace", None)
    if (
        cached is None
        or cached.m != m
        or cached.i32.dtype != dtype
        or cached.capacity < rows
    ):
        cached = _ChunkWorkspace(rows, m, dtype)
        _WORKSPACE_LOCAL.workspace = cached
    return cached


def release_batch_workspaces() -> None:
    """Drop this thread's cached chunk workspace (frees the buffers)."""
    _WORKSPACE_LOCAL.workspace = None


def _chunk_coefficients(mat, params, plan, alpha_out, beta_t, workspace):
    """Algorithm 3 for one row chunk (cache-resident working set)."""
    d = params.d
    dtype = mat.dtype.type
    rows = mat.shape[0]
    i32, key2d, gathered, scratch, window_beta = workspace.views(rows)
    u, masked, align, half = i32
    np.right_shift(mat, dtype(d), out=u)
    u_hi = int(u.max())
    n_exp = u_hi + 1
    # Transposed (u value)-major keys: per-u slices of the histogram and
    # of the window set-count matrices are contiguous rows.
    np.multiply(u, np.int64(rows), out=key2d)
    np.add(key2d, np.arange(rows, dtype=np.int64)[:, None], out=key2d)
    key = key2d.ravel()
    hist = np.bincount(key, minlength=rows * n_exp).reshape(n_exp, rows)
    occupied = np.flatnonzero(hist.any(axis=1)).tolist()
    phis = phi_table(params)
    for uv in occupied:
        if uv >= 1:
            beta_t[phis[uv]] += hist[uv]

    if plan is not None:
        # One einsum folds the u-term omega mass and every valid window
        # position's rho mass; set bits are subtracted via the window
        # beta counts below (all arithmetic exact modulo 2**64).
        alpha_out[:] = np.einsum("uk,u->k", hist, plan.weight[:n_exp])
        if d and u_hi >= 2:
            window_beta[:] = 0
            np.take(plan.vmask, u, out=masked)
            np.bitwise_and(mat, masked, out=masked)
            np.subtract(u, dtype(2), out=align)
            np.bitwise_and(align, dtype((1 << params.t) - 1), out=align)
            deep = [uv for uv in occupied if uv >= 2]
            mask = np.int64(plan.slot_mask)
            for j0, width, words in plan.halves:
                if j0 + 1 > u_hi - 1:
                    break  # no register has valid bits this deep
                np.right_shift(masked, dtype(d - j0 - width), out=half)
                np.bitwise_and(half, dtype((1 << width) - 1), out=half)
                np.left_shift(align, dtype(width), out=scratch)
                np.bitwise_or(scratch, half, out=scratch)
                idx = scratch.ravel()
                for lut, slots in words:
                    np.take(lut, idx, out=gathered)
                    packed = np.bincount(
                        key, weights=gathered, minlength=rows * n_exp
                    ).reshape(n_exp, rows).astype(np.int64)
                    for offset, e_map in slots:
                        counts = (packed >> np.int64(offset)) & mask
                        for uv in deep:
                            e = int(e_map[uv])
                            if e >= 0:
                                window_beta[e] += counts[uv]
            alpha_out -= np.einsum("ek,e->k", window_beta, plan.rho_exp)
            beta_t += window_beta
    else:
        alpha_out[:] = np.einsum("uk,u->k", hist, _omega_vector(params)[:n_exp])
        if d and u_hi >= 2:
            _window_loop(mat, key, hist, occupied, params, alpha_out, beta_t)


def register_coefficients(
    matrix, params: ExaLogLogParams
) -> BatchCoefficients:
    """Vectorised Algorithm 3 over a ``(k, m)`` register matrix.

    ``matrix`` holds one sketch's register values per row (any integer
    dtype; ``params.register_bits`` must fit int64). Produces, per row,
    exactly the coefficients of the scalar
    :func:`repro.core.mlestimation.compute_coefficients`. Rows are
    processed in cache-sized chunks (the same trick as the bulk-ingest
    fold); results are independent per row, so chunking is invisible.
    """
    mat = np.ascontiguousarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"expected a (k, m) register matrix, got shape {mat.shape}")
    if params.register_bits > 63:
        raise ValueError(
            f"register width {params.register_bits} exceeds the int64 fast path"
        )
    # int32 halves the memory traffic of the bit-op passes and covers
    # every named configuration (ELL(2, 20) registers are 28 bits).
    target_dtype = np.int32 if params.register_bits <= 31 else np.int64
    if mat.dtype != target_dtype:
        mat = mat.astype(target_dtype)
    k, m = mat.shape
    if m != params.m:
        raise ValueError(f"expected {params.m} registers per row, got {m}")
    if k == 0:
        return BatchCoefficients(
            np.zeros(0),
            np.zeros(0, dtype=_U64),
            np.zeros((0, EXPONENT_AXIS), dtype=np.int64),
        )
    plan = _register_plan(params)
    # alpha' accumulates in int64 with two's-complement wrap-around —
    # bit-identical to uint64 arithmetic modulo 2**64.
    alpha_i64 = np.empty(k, dtype=np.int64)
    beta_t = np.zeros((EXPONENT_AXIS, k), dtype=np.int64)
    chunk_rows = min(max(1, _CHUNK_ELEMENTS // m), k)
    workspace = _chunk_workspace(chunk_rows, m, mat.dtype)
    for start in range(0, k, chunk_rows):
        stop = min(start + chunk_rows, k)
        _chunk_coefficients(
            mat[start:stop],
            params,
            plan,
            alpha_i64[start:stop],
            beta_t[:, start:stop],
            workspace,
        )
    alpha_u64 = alpha_i64.view(_U64)
    alpha = np.ldexp(alpha_u64.astype(np.float64), -(64 - params.p))
    return BatchCoefficients(
        alpha=alpha, alpha_scaled=alpha_u64, beta=np.ascontiguousarray(beta_t.T)
    )


# -- Algorithm 8: row by row or simultaneous -----------------------------------

#: Solves of at most this many rows run row by row through the scalar
#: :func:`repro.estimation.newton.solve_ml_equation`, the oracle. The
#: simultaneous solve makes about the same NumPy calls whatever its row
#: count, so it only pays off above a few dozen rows. Swept over 1-128
#: rows (best of 60 on a 2-vCPU host): one ELL(2, 20, 8) register row
#: takes 0.022 ms scalar and 0.59 ms simultaneous, 32 rows 0.42 ms and
#: 0.64 ms, and the routes meet at about 48 register rows and at about
#: 40 token rows.
SCALAR_SOLVE_ROWS = 32

#: ``2**-u`` per exponent column (exact powers of two).
_POWERS = np.ldexp(1.0, -np.arange(EXPONENT_AXIS))


def solve_ml_equations(alpha, beta) -> BatchMLSolution:
    """Algorithm 8 for every row of ``(alpha, beta)``.

    ``alpha`` is float64 ``(k,)``, ``beta`` an integer ``(k, u)`` count
    matrix keyed by exponent (column index). Each row's ML equation is
    independent (Alg. 8 converges monotonically from Lemma B.3's
    starting point, row by row), so the route is chosen by size: at most
    :data:`SCALAR_SOLVE_ROWS` rows go through the scalar solver one by
    one, larger solves iterate all rows at once. Per row, every
    floating-point operation of the simultaneous route replays the
    scalar solver exactly — multiplication-only recursions
    (20)-(22)/(30), Lemma B.3 starting point, monotone Newton updates
    with per-row convergence — so ``nu``, ``iterations`` and
    ``saturated`` are bit-identical to solving each row alone on either
    route, and both record the same ``estimation.solve_batch_size`` and
    ``estimation.newton_iterations`` observations.
    """
    alpha = np.ascontiguousarray(alpha, dtype=np.float64)
    beta = np.ascontiguousarray(beta, dtype=np.int64)
    if beta.ndim != 2:
        raise ValueError(f"expected a (k, u) beta matrix, got shape {beta.shape}")
    k = beta.shape[0]
    if alpha.shape != (k,):
        raise ValueError(f"alpha shape {alpha.shape} does not match {k} beta rows")
    if np.any(alpha < 0.0):
        value = float(alpha[np.flatnonzero(alpha < 0.0)[0]])
        raise ValueError(f"alpha must be non-negative, got {value}")
    if np.any(beta < 0):
        row, col = np.argwhere(beta < 0)[0]
        raise ValueError(
            f"beta[{int(col)}] must be non-negative, got {int(beta[row, col])}"
        )

    if _metrics.enabled():
        _SOLVE_BATCH_SIZE.observe(float(k))
    if k <= SCALAR_SOLVE_ROWS:
        solution = _solve_rows(alpha, beta)
    else:
        solution = _solve_simultaneous(alpha, beta)
    if _metrics.enabled():
        # Empty and saturated rows take no iteration on either route.
        iterations = solution.iterations
        values, counts = np.unique(iterations[iterations > 0], return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            _NEWTON_ITERATIONS.observe(float(value), count=int(count))
    return solution


def _solve_rows(alpha, beta) -> BatchMLSolution:
    """Algorithm 8 row by row through the scalar solver (bit-identical by
    construction)."""
    solutions = [
        solve_ml_equation(value, {u: count for u, count in enumerate(row) if count})
        for value, row in zip(alpha.tolist(), beta.tolist())
    ]
    return BatchMLSolution(
        nu=np.array([solution.nu for solution in solutions], dtype=np.float64),
        iterations=np.array(
            [solution.iterations for solution in solutions], dtype=np.int64
        ),
        saturated=np.array(
            [solution.saturated for solution in solutions], dtype=bool
        ),
    )


def _sigma_sums(band, first: int):
    """Per row, ``sigma0 = sum_u beta_u`` and ``sigma1 = sum_u beta_u 2**-u``.

    ``band`` holds the beta columns from exponent ``first`` on, and must
    cover every nonzero count of the rows whose sums are used. Both sums
    equal the scalar solver's ascending-exponent loop bit for bit:
    ``np.cumsum`` accumulates sequentially, while ``np.sum`` adds pairwise
    and rounds ``sigma1`` differently on most rows, and zero-count terms
    add exactly 0.0. ``sigma0``'s partial sums are integers below 2**53,
    so its integer total is exact in any order.
    """
    sigma0 = band.sum(axis=1).astype(np.float64)
    terms = band * _POWERS[first : first + band.shape[1]]
    np.cumsum(terms, axis=1, out=terms)
    return sigma0, terms[:, -1].copy()


def _offset_counts(beta, u_min, u_max, width: int):
    """float64 ``(k, width)``: ``beta[:, u_max - o]`` at offset ``o``, zero
    below each row's ``u_min``."""
    columns = u_max[:, None] - np.arange(width, dtype=np.int64)
    outside = columns < u_min[:, None]
    np.clip(columns, 0, beta.shape[1] - 1, out=columns)
    counts = np.take_along_axis(beta, columns, axis=1).astype(np.float64)
    counts[outside] = 0.0
    return counts


def _solve_simultaneous(alpha, beta) -> BatchMLSolution:
    """Algorithm 8 on all rows at once, with a per-row convergence mask."""
    k, n_exp = beta.shape
    nu = np.zeros(k)
    iterations = np.zeros(k, dtype=np.int64)
    nonzero = beta > 0
    has_counts = nonzero.any(axis=1)
    saturated = has_counts & (alpha == 0.0)
    solving = has_counts & ~saturated
    nu[saturated] = math.inf
    if not solving.any():
        return BatchMLSolution(nu=nu, iterations=iterations, saturated=saturated)

    u_min = nonzero.argmax(axis=1).astype(np.int64)
    u_max = np.int64(n_exp - 1) - nonzero[:, ::-1].argmax(axis=1).astype(np.int64)

    # Every solving row's counts lie within [u_min, u_max]; empty rows
    # would widen the band, and their sums are never read.
    first = int(u_min[solving].min())
    sigma0, sigma1 = _sigma_sums(beta[:, first : int(u_max[solving].max()) + 1], first)
    scale = np.ldexp(1.0, u_max.astype(np.int32))
    sigma1 = sigma1 * scale
    a_scaled = alpha * scale
    with np.errstate(all="ignore"):
        x = sigma1 / a_scaled
    # Lemma B.3 lower bound through math.* for bit-identity with the
    # scalar path (NumPy's SIMD expm1/log1p may differ in the last ulp).
    rows = np.flatnonzero(solving & (u_min < u_max))
    if len(rows):
        x[rows] = [
            math.expm1(math.log1p(value) * (s0 / s1))
            for value, s0, s1 in zip(
                x[rows].tolist(), sigma0[rows].tolist(), sigma1[rows].tolist()
            )
        ]

    span = u_max - u_min
    beta_off = _offset_counts(beta, u_min, u_max, int(span[solving].max()) + 1)

    active = solving.copy()
    x_cur = np.where(active, x, 0.0)
    while True:
        iterations[active] += 1
        if int(iterations.max()) > MAX_ITERATIONS:
            row = int(np.flatnonzero(iterations > MAX_ITERATIONS)[0])
            counts = {
                int(col): int(beta[row, col])
                for col in np.flatnonzero(beta[row]).tolist()
            }
            raise ArithmeticError(
                "Newton iteration failed to converge; this indicates a bug "
                f"(alpha={float(alpha[row])!r}, beta={counts!r})"
            )
        # Sum phi (17) and psi (28) with the recursions (20)-(22), (30).
        # Offsets beyond a row's span carry zero counts, so running every
        # row to the longest active span adds exact 0.0 terms — phi and
        # psi stay bit-identical to the scalar per-row loop without any
        # per-offset masking (lam/eta/y drift past the span is unread).
        lam = np.ones(k)
        eta = np.zeros(k)
        y = x_cur.copy()
        phi_val = beta_off[:, 0].copy()
        psi_val = np.zeros(k)
        with np.errstate(all="ignore"):
            o_hi = int(span[active].max())
            for o in range(1, o_hi + 1):
                z = 2.0 / (2.0 + y)
                lam = lam * z
                eta = eta * (2.0 - z) + (1.0 - z)
                counts = beta_off[:, o]
                phi_val = phi_val + counts * lam
                psi_val = psi_val + counts * lam * eta
                if o < o_hi:
                    y = y * (y + 2.0)
            x_scaled = a_scaled * x_cur
            at_root = active & (phi_val <= x_scaled)
            x_next = x_cur * (1.0 + (phi_val - x_scaled) / (psi_val + x_scaled))
            advanced = active & ~at_root & (x_next > x_cur)
        x_cur = np.where(advanced, x_next, x_cur)
        active = advanced
        if not active.any():
            break

    # nu = 2**u_max * log1p(x); math.log1p for bit-identity with the scalar.
    rows = np.flatnonzero(solving)
    nu[rows] = [
        (2.0 ** u) * math.log1p(value)
        for u, value in zip(u_max[rows].tolist(), x_cur[rows].tolist())
    ]
    return BatchMLSolution(nu=nu, iterations=iterations, saturated=saturated)


# -- end-to-end estimate paths -------------------------------------------------


def estimate_registers(
    matrix, params: ExaLogLogParams, bias_correction: bool = True
) -> np.ndarray:
    """Batched ML estimates for a ``(k, m)`` register matrix.

    Bit-identical to calling the scalar Algorithm 3 + Algorithm 8 +
    Eq. (4) pipeline on every row.
    """
    from repro.core.mlestimation import bias_correction_factor

    coefficients = register_coefficients(matrix, params)
    solution = solve_ml_equations(coefficients.alpha, coefficients.beta)
    estimates = params.m * solution.nu
    if bias_correction:
        factor = bias_correction_factor(params)
        estimates = np.where(estimates > 0.0, estimates * factor, estimates)
    return estimates


#: :func:`batch_estimate_sketches` assembles and solves at most this many
#: rows at a time, so no ``(rows x EXPONENT_AXIS)`` block spans a whole
#: collection: a ``top(10)`` over a million groups stays in bounded
#: memory. Rows are independent, so chunking changes no result, and
#: 2**14 rows split no solve that a benchmark workload makes.
ESTIMATE_CHUNK_ROWS = 1 << 14

#: Algorithm 7's ``2**(64 - j)`` per token exponent ``j`` in ``[1, 64]``,
#: as int64 modulo 2**64 (column 0 and 65 never occur).
_TOKEN_WEIGHTS = np.array(
    [_as_int64(1 << (64 - j)) if 1 <= j <= 64 else 0 for j in range(EXPONENT_AXIS)],
    dtype=np.int64,
)
_TOKEN_WEIGHTS.setflags(write=False)


def token_coefficients(row_index, tokens, rows: int, v: int) -> BatchCoefficients:
    """Algorithm 7's coefficients for ``rows`` token sets given as arrays.

    Token ``i`` belongs to row ``row_index[i]`` (int64, in ``[0, rows)``);
    each row's tokens must be distinct. ``beta`` comes from one
    ``bincount`` over ``row * EXPONENT_AXIS + j`` with
    ``j = min(v + 1 + nlz, 64)`` read off the token's 6-bit nlz field,
    and ``alpha' = 2**64 - sum_j beta_j * 2**(64 - j)`` stays exact
    modulo 2**64. Tokens take 64 bits at ``v = 58``, where they may be
    uint64.
    """
    keys = (np.asarray(tokens) & 63).astype(np.int64)
    keys += v + 1
    np.minimum(keys, 64, out=keys)
    keys += np.asarray(row_index, dtype=np.int64) * EXPONENT_AXIS
    beta = np.bincount(keys, minlength=rows * EXPONENT_AXIS).reshape(rows, EXPONENT_AXIS)
    alpha, alpha_scaled = _token_alpha(beta)
    return BatchCoefficients(alpha=alpha, alpha_scaled=alpha_scaled, beta=beta)


def _token_alpha(beta):
    """Algorithm 7's ``alpha`` of token rows, and ``alpha'`` exact modulo 2**64.

    ``alpha' = 2**64 - sum_j beta_j * 2**(64 - j)``.
    """
    alpha_scaled = np.negative(np.einsum("kj,j->k", beta, _TOKEN_WEIGHTS)).view(_U64)
    return np.ldexp(alpha_scaled.astype(np.float64), -64), alpha_scaled


def batch_estimate_sketches(sketches, bias_correction: bool = True) -> list[float]:
    """Estimates for a mixed sketch collection, row chunk by row chunk.

    Accepts :class:`~repro.core.exaloglog.ExaLogLog` (and subclasses that
    inherit its ML ``estimate``) plus :class:`~repro.core.sparse.SparseExaLogLog`
    in either mode. Rows go in chunks of :data:`ESTIMATE_CHUNK_ROWS`, each
    one :func:`solve_ml_equations` call (which takes a point read's single
    row through the scalar Algorithm 8). Within a chunk, dense register
    rows are stacked per parameterisation for the vectorised Algorithm 3,
    and token-mode rows get their Algorithm 7 coefficients from one
    ``bincount`` over (row, j) pairs. Anything unbatchable (overridden
    estimators, register widths beyond int64) falls back to its own
    ``estimate()``. Results are bit-identical to per-sketch estimation.
    """
    return _estimate_vector(sketches, bias_correction).tolist()


def _estimate_vector(sketches, bias_correction: bool = True) -> np.ndarray:
    """:func:`batch_estimate_sketches` as a float64 array."""
    from repro.backends.bulk import supports_int64_registers
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    estimates = np.zeros(len(sketches))
    # Blocks of rows: (is_tokens, params or v, positions, sketches or token
    # sets). Parameter objects are interned (make_params caches), so
    # batchability resolves through one id()-keyed dict probe per sketch.
    dense: dict[int, tuple] = {}
    tokens: dict[int, tuple] = {}
    batchable: dict[tuple, bool] = {}
    for i, sketch in enumerate(sketches):
        target = sketch
        if isinstance(target, SparseExaLogLog):
            token_set = target._tokens
            if token_set is not None:
                block = tokens.get(target._v)
                if block is None:
                    block = tokens[target._v] = (True, target._v, array("q"), [])
                block[2].append(i)
                block[3].append(token_set)
                continue
            target = target._dense
        if isinstance(target, ExaLogLog):
            params = target._params
            key = (type(target), id(params))
            ok = batchable.get(key)
            if ok is None:
                ok = batchable[key] = (
                    type(target).estimate is ExaLogLog.estimate
                    and supports_int64_registers(params)
                )
            if ok:
                block = dense.get(id(params))
                if block is None:
                    block = dense[id(params)] = (False, params, array("q"), [])
                block[2].append(i)
                block[3].append(target)
                continue
        estimates[i] = sketch.estimate()
    # Dense blocks first: within a chunk, token rows are then one tail.
    blocks = [*dense.values(), *tokens.values()]
    for pieces, rows in _row_chunks(blocks, ESTIMATE_CHUNK_ROWS):
        _estimate_chunk(pieces, rows, bias_correction, estimates)
    return estimates


def _row_chunks(blocks, size: int):
    """Cut the blocks' rows into consecutive chunks of at most ``size``.

    Yields ``(pieces, rows)``, each piece a ``(block, start, stop)`` slice.
    """
    pieces, filled = [], 0
    for block in blocks:
        count = len(block[3])
        start = 0
        while start < count:
            stop = min(count, start + size - filled)
            pieces.append((block, start, stop))
            filled += stop - start
            start = stop
            if filled == size:
                yield pieces, filled
                pieces, filled = [], 0
    if pieces:
        yield pieces, filled


def _token_keys(token_sets, v: int, first_row: int) -> np.ndarray:
    """Keys ``row * EXPONENT_AXIS + j`` of Algorithm 7, one per token.

    ``j = min(v + 1 + nlz, 64)`` reads the token's 6-bit nlz field. Tokens
    take 64 bits at ``v = 58``, so they are gathered as uint64 there.
    """
    lengths = [len(token_set) for token_set in token_sets]
    dtype = np.uint64 if v + 6 > 63 else np.int64
    keys = np.fromiter(
        chain.from_iterable(token_sets), dtype=dtype, count=sum(lengths)
    )
    keys &= dtype(63)
    keys = keys.view(np.int64)
    keys += v + 1
    np.minimum(keys, 64, out=keys)
    first = first_row * EXPONENT_AXIS
    keys += np.repeat(
        np.arange(first, first + len(lengths) * EXPONENT_AXIS, EXPONENT_AXIS),
        lengths,
    )
    return keys


def _token_counts(pieces, first_row: int, rows: int) -> np.ndarray:
    """The chunk's int64 ``(rows, EXPONENT_AXIS)`` beta block.

    Its token rows, from ``first_row`` on, get Algorithm 7's counts from
    one bincount over (row, j); dense rows read zero until their
    coefficients land.
    """
    keys = []
    row = first_row
    for (is_tokens, v, _, token_sets), start, stop in pieces:
        if is_tokens:
            keys.append(_token_keys(token_sets[start:stop], v, row))
            row += stop - start
    if len(keys) != 1:  # one piece is the common case: no copy then
        keys = [np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)]
    return np.bincount(keys[0], minlength=rows * EXPONENT_AXIS).reshape(
        rows, EXPONENT_AXIS
    )


def _estimate_chunk(pieces, rows: int, bias_correction: bool, estimates) -> None:
    """Coefficients, one solve and the scatter for one chunk of rows."""
    from repro.core.mlestimation import bias_correction_factor

    dense_rows = sum(stop - start for block, start, stop in pieces if not block[0])
    beta = _token_counts(pieces, dense_rows, rows)
    alpha = np.empty(rows)
    scale = np.ones(rows)
    bias = np.ones(rows)
    if dense_rows < rows:
        alpha[dense_rows:] = _token_alpha(beta[dense_rows:])[0]
    row = 0
    for (is_tokens, params, _, members), start, stop in pieces:
        if is_tokens:
            continue
        count = stop - start
        # Assemble straight into the extraction dtype (row assignment
        # narrows the cached int64 arrays on the fly).
        matrix = np.empty(
            (count, params.m),
            dtype=np.int32 if params.register_bits <= 31 else np.int64,
        )
        for offset, sketch in enumerate(members[start:stop]):
            matrix[offset] = sketch.registers_array()
        coefficients = register_coefficients(matrix, params)
        alpha[row : row + count] = coefficients.alpha
        beta[row : row + count] = coefficients.beta
        scale[row : row + count] = params.m
        if bias_correction:
            bias[row : row + count] = bias_correction_factor(params)
        row += count

    solution = solve_ml_equations(alpha, beta)
    values = scale * solution.nu
    values = np.where(values > 0.0, values * bias, values)
    row = 0
    for (_, _, positions, _), start, stop in pieces:
        count = stop - start
        estimates[np.frombuffer(positions, dtype=np.int64)[start:stop]] = values[
            row : row + count
        ]
        row += count


def batch_estimates_by_key(sketches) -> "dict[bytes, float]":
    """All estimates of a keyed sketch mapping, batched.

    The query executor's estimates over a scan it materialised: stack
    every sketch through :func:`batch_estimate_sketches` and zip the
    estimates back onto the mapping's keys, preserving its iteration
    order.
    """
    if not sketches:
        return {}
    keys = list(sketches)
    values = batch_estimate_sketches([sketches[key] for key in keys])
    return dict(zip(keys, values))


def top_positions(values, count: int) -> np.ndarray:
    """Positions of the ``count`` largest of ``values``, largest first.

    ``np.argpartition`` finds the ``count``-th largest value in
    O(len(values)); everything strictly above it plus the earliest ties
    are then sorted, which is exactly the prefix of a stable descending
    sort: ties keep their order in ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    if count <= 0 or not len(values):
        return np.zeros(0, dtype=np.int64)
    if count >= len(values):
        return np.argsort(-values, kind="stable")
    threshold = values[np.argpartition(-values, count - 1)[:count]].min()
    above = np.flatnonzero(values > threshold)
    ties = np.flatnonzero(values == threshold)[: count - len(above)]
    chosen = np.concatenate((above, ties))
    return chosen[np.argsort(-values[chosen], kind="stable")]
