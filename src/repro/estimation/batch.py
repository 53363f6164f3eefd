"""Vectorised batch estimation engine (paper Alg. 3 + Alg. 8, many sketches).

The scalar estimation pipeline — :func:`repro.core.mlestimation.compute_coefficients`
(Algorithm 3) followed by :func:`repro.estimation.newton.solve_ml_equation`
(Algorithm 8) — walks every register in Python and solves one sketch at a
time. This module computes the same quantities with NumPy:

* :func:`register_coefficients` extracts the ``(alpha, beta)`` coefficients
  of Eq. (15) for a whole ``(k, m)`` register matrix at once, with one
  kernel for every ``(t, d, p)`` whose registers fit int64. The
  ``alpha' = alpha * 2**(64-p)`` accumulation stays exact integer
  arithmetic: every contribution is added modulo ``2**64`` in int64,
  and since the true total lies in ``[0, 2**64]`` (the endpoint only for
  a row of all-initial registers, which the ``beta``-is-empty mask
  handles before alpha is ever used), the wrapped value equals the exact
  value for every non-empty row. Per row chunk, one histogram of ``u``
  gives the ``omega'(u)`` and ``phi(u)`` terms; the window bits, whose
  exponent is constant over each run of ``2**t`` update values (Eq.
  (11)), are counted by one ``np.bitwise_count`` per run ("field") under
  a per-``u`` mask, packed several counts to a float64 word and summed by
  one ``bincount`` per word.

* :func:`solve_ml_equations` runs Algorithm 8 on every row of a
  ``(k, u)`` beta matrix. Up to :data:`SCALAR_SOLVE_ROWS` rows (a point
  read is one) go row by row through the scalar solver; larger calls
  iterate all rows simultaneously with a convergence mask. Every float
  operation is performed per row in exactly the scalar solver's order,
  so results are bit-identical — including the transcendental steps (the
  starting point and the final ``log1p``), which go through ``math.*`` per
  row because NumPy's SIMD ``expm1``/``log1p`` may differ from libm in the
  last ulp.

* :func:`estimate_chunk` is the one path from rows to estimates: dense
  register rows through Algorithm 3 and token sets through Algorithm 7's
  :func:`token_coefficients` (one ``bincount`` over (row, j)), then one
  solve, then ``m`` and the bias correction on the dense rows.
  :func:`estimate_registers`, :func:`batch_estimate_sketches` (per
  parameterisation, in chunks of :data:`ESTIMATE_CHUNK_ROWS` rows) and
  the aggregator's ``estimates``/``top``/``estimate`` all call it.

* :func:`rank` orders every ``top``: descending estimate, ties by key.

The contract, asserted by the equivalence tests and by
``benchmarks/bench_estimate.py``: batched estimates equal the scalar
pipeline bit for bit, including ``saturated`` (infinite) and empty rows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.core.distribution import omega_scaled_table, phi_table
from repro.core.params import ExaLogLogParams
from repro.estimation.newton import (
    CONVERGED_STEP,
    MAX_ITERATIONS,
    single_term_bound,
    solve_ml_equation,
)
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

#: Registers per row chunk of :func:`register_coefficients`, so the
#: dozen temporaries of a chunk stay cache-resident (2**14 and 2**15
#: swept fastest). Rows are independent, so chunking changes no result.
_CHUNK_REGISTERS = 1 << 14


def _as_int64(value: int) -> int:
    """Reduce a Python int modulo ``2**64`` into int64's two's complement."""
    value &= _MOD64 - 1
    return value - _MOD64 if value >= (1 << 63) else value


@dataclass(frozen=True)
class _Tables:
    """Per-parameter tables of the Algorithm 3 kernel.

    Window bit ``j`` of a register with update value ``u`` records update
    value ``u - j``, and Eq. (11)'s ``phi`` is constant over each run of
    ``2**t`` update values. So a register's valid window bits
    (``1 <= j <= min(d, u - 1)``) split into at most
    ``ceil((d - 1) / 2**t) + 1`` *fields*, one per run: field ``f`` holds
    the bits of exponent ``e0 - f``, where ``e0 = t + 1 + ((u - 2) >> t)``
    is bit ``j = 1``'s exponent before the clamp at ``64 - p``. Its count
    is one popcount under the per-``u`` mask ``masks[f, u]``.
    """

    masks: np.ndarray
    """``(fields, k_max + 1)``: field ``f``'s window bits per ``u``."""

    weight: np.ndarray
    """int64 per ``u`` (mod 2**64): ``omega'(u)`` plus ``2**(64-p-phi)``
    of every valid window bit; the set bits' terms are subtracted."""

    rho: np.ndarray
    """int64 per exponent ``e`` (mod 2**64): ``2**(64 - p - min(e, 64 - p))``."""

    spacing: int
    """Bits per packed count slot: the bit length of ``m * 2**t``, the
    largest count a slot sums to."""

    per_word: int
    """Count slots per float64 word, so packed sums stay below 2**53."""


@lru_cache(maxsize=32)
def _tables(params: ExaLogLogParams) -> _Tables:
    d, t = params.d, params.t
    shift = 64 - params.p
    k_max = params.max_update_value
    phis = phi_table(params)
    omegas = omega_scaled_table(params)
    fields = 1 + ((d + (1 << t) - 2) >> t) if d else 0  # 1 + ceil((d - 1) / 2**t)
    masks = np.zeros(
        (fields, k_max + 1),
        dtype=np.int32 if params.register_bits <= 31 else np.int64,
    )
    weight = np.zeros(k_max + 1, dtype=np.int64)
    for u in range(k_max + 1):
        total = omegas[u]
        for j in range(1, min(d, u - 1) + 1):
            total += 1 << (shift - phis[u - j])
            masks[((u - 2) >> t) - ((u - 1 - j) >> t), u] |= 1 << (d - j)
        weight[u] = _as_int64(total)
    rho = np.array(
        [_as_int64(1 << shift >> min(e, shift)) if e > t else 0 for e in range(EXPONENT_AXIS)],
        dtype=np.int64,
    )
    for array in (masks, weight, rho):
        array.setflags(write=False)
    spacing = (params.m << t).bit_length()
    return _Tables(masks, weight, rho, spacing, max(1, 53 // spacing))


def _register_chunk(mat, params, tables, alpha, beta) -> None:
    """Algorithm 3 for one row chunk, into its int64 ``alpha'`` and ``beta``."""
    rows = len(mat)
    t = params.t
    run = 1 << t
    u = (mat >> mat.dtype.type(params.d)).astype(np.intp)
    n_u = int(u.max()) + 1
    key = (u + (np.arange(rows) * n_u)[:, None] if rows > 1 else u).ravel()
    # One histogram of u covers the omega'(u) terms and the phi(u) counts.
    hist = np.bincount(key, minlength=rows * n_u).reshape(rows, n_u)
    alpha[:] = hist @ tables.weight[:n_u]
    if n_u > 1:
        counts = np.add.reduceat(hist, np.arange(1, n_u, run), axis=1)
        beta[:, t + 1 : t + 1 + counts.shape[1]] = counts
    # Field f has bits only where u >= 2 + f * 2**t.
    fields = min(len(tables.masks), ((n_u - 3) >> t) + 1) if n_u > 2 else 0
    if not fields:
        return
    # Field counts, packed several to a float64 word, are summed per
    # (u, row) by one bincount and per run of u (one e0) by one reduceat;
    # field f's counts then shift down to exponent e0 - f.
    runs = np.arange(2, n_u, run)
    window = np.zeros_like(beta)
    slot = np.int64((1 << tables.spacing) - 1)
    for first in range(0, fields, tables.per_word):
        last = min(first + tables.per_word, fields)
        for f in range(first, last):
            bits = np.bitwise_count(mat & tables.masks[f].take(u))
            if f == first:
                packed = bits.astype(np.float64)
            else:
                packed += bits * float(1 << tables.spacing * (f - first))
        sums = np.bincount(key, weights=packed.ravel(), minlength=rows * n_u)
        sums = np.add.reduceat(sums.reshape(rows, n_u), runs, axis=1).astype(np.int64)
        for f in range(first, last):
            counts = (sums[:, f:] >> np.int64(tables.spacing * (f - first))) & slot
            window[:, t + 1 : t + 1 + counts.shape[1]] += counts
    alpha -= window @ tables.rho
    beta += window


def register_coefficients(
    matrix, params: ExaLogLogParams
) -> BatchCoefficients:
    """Vectorised Algorithm 3 over a ``(k, m)`` register matrix.

    ``matrix`` holds one sketch's register values per row (any integer
    dtype; ``params.register_bits`` must fit int64). Produces, per row,
    exactly the coefficients of the scalar
    :func:`repro.core.mlestimation.compute_coefficients`, from one kernel
    for every ``(t, d, p)``. Rows go in chunks of about
    ``_CHUNK_REGISTERS`` registers; results are independent per row,
    so chunking is invisible.
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
    tables = _tables(params)
    # alpha' accumulates in int64 with two's-complement wrap-around —
    # bit-identical to uint64 arithmetic modulo 2**64.
    alpha = np.empty(k, dtype=np.int64)
    beta = np.zeros((k, EXPONENT_AXIS), dtype=np.int64)
    step = max(1, _CHUNK_REGISTERS // m)
    for start in range(0, k, step):
        _register_chunk(
            mat[start : start + step],
            params,
            tables,
            alpha[start : start + step],
            beta[start : start + step],
        )
    # Exponents above 64 - p (the last, truncated run of update values)
    # fold into 64 - p, where phi clamps them.
    top = 64 - params.p
    beta[:, top] += beta[:, top + 1 :].sum(axis=1)
    beta[:, top + 1 :] = 0
    alpha_u64 = alpha.view(_U64)
    return BatchCoefficients(
        alpha=np.ldexp(alpha_u64.astype(np.float64), -top),
        alpha_scaled=alpha_u64,
        beta=beta,
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
    independent (Alg. 8 converges monotonically from a lower bound of
    the root, row by row), so the route is chosen by size: at most
    :data:`SCALAR_SOLVE_ROWS` rows go through the scalar solver one by
    one, larger solves iterate all rows at once. Per row, every
    floating-point operation of the simultaneous route replays the
    scalar solver exactly — multiplication-only recursions
    (20)-(22)/(30), the starting point, monotone Newton updates with
    per-row convergence — so ``nu``, ``iterations`` and
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
    span = u_max - u_min
    beta_off = _offset_counts(beta, u_min, u_max, int(span[solving].max()) + 1)
    # Lemma B.3 lower bound through math.* for bit-identity with the
    # scalar path (NumPy's SIMD expm1/log1p may differ in the last ulp),
    # raised by single_term_bound on the rows whose largest count passes
    # the scalar solver's check.
    rows = np.flatnonzero(solving & (u_min < u_max))
    if len(rows):
        log_x = [
            math.log1p(value) * (s0 / s1)
            for value, s0, s1 in zip(
                x[rows].tolist(), sigma0[rows].tolist(), sigma1[rows].tolist()
            )
        ]
        with np.errstate(all="ignore"):
            raised = beta_off.max(axis=1)[rows] / a_scaled[rows] > log_x
        for i in np.flatnonzero(raised).tolist():
            row = int(rows[i])
            log_x[i] = single_term_bound(
                log_x[i], beta_off[row].tolist(), float(a_scaled[row])
            )
        x[rows] = [math.expm1(value) for value in log_x]

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
            stepping = advanced & (x_next > x_cur * CONVERGED_STEP)
        x_cur = np.where(advanced, x_next, x_cur)
        active = stepping
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

#: Every caller of :func:`estimate_chunk` passes at most this many rows,
#: so no ``(rows x EXPONENT_AXIS)`` block spans a whole collection: a
#: ``top(10)`` over a million groups stays in bounded memory. Rows are
#: independent, so chunking changes no result, and 2**14 rows split no
#: solve that a benchmark workload makes.
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
    alpha_scaled = np.negative(beta @ _TOKEN_WEIGHTS).view(_U64)
    return BatchCoefficients(
        alpha=np.ldexp(alpha_scaled.astype(np.float64), -64),
        alpha_scaled=alpha_scaled,
        beta=beta,
    )


def estimate_chunk(
    matrix, params: ExaLogLogParams, tokens=None, bias_correction: bool = True
) -> np.ndarray:
    """Estimates of one chunk of rows: dense register rows, then token rows.

    ``matrix`` holds the chunk's ``(k, m)`` register rows of ``params``
    (``k`` may be 0). ``tokens``, when given, is the ``(row_index,
    tokens, rows, v)`` of :func:`token_coefficients` over the whole chunk:
    its token sets are rows ``k`` to ``rows - 1``, after the dense rows,
    which hold none. Algorithms 3 and 7 give the coefficients, one
    :func:`solve_ml_equations` call solves every row, and the dense rows'
    ``nu`` is scaled by ``m`` and Eq. (4)'s bias correction. Bit-identical
    to each sketch's own ``estimate()``.
    """
    from repro.core.mlestimation import bias_correction_factor

    dense = len(matrix)
    if tokens is None:
        coefficients = register_coefficients(matrix, params)
        alpha, beta = coefficients.alpha, coefficients.beta
    else:
        coefficients = token_coefficients(*tokens)
        alpha, beta = coefficients.alpha, coefficients.beta
        if dense:  # their beta rows read zero until their coefficients land
            coefficients = register_coefficients(matrix, params)
            alpha[:dense] = coefficients.alpha
            beta[:dense] = coefficients.beta
    values = solve_ml_equations(alpha, beta).nu
    scaled = values[:dense]
    scaled *= params.m
    if bias_correction:
        np.multiply(scaled, bias_correction_factor(params), out=scaled, where=scaled > 0.0)
    return values


def estimate_registers(
    matrix, params: ExaLogLogParams, bias_correction: bool = True
) -> np.ndarray:
    """Batched ML estimates for a ``(k, m)`` register matrix.

    Bit-identical to calling the scalar Algorithm 3 + Algorithm 8 +
    Eq. (4) pipeline on every row.
    """
    return estimate_chunk(matrix, params, bias_correction=bias_correction)


def batch_estimate_sketches(sketches, bias_correction: bool = True) -> list[float]:
    """Estimates for a mixed sketch collection, one parameterisation at a time.

    Accepts :class:`~repro.core.exaloglog.ExaLogLog` (and subclasses that
    inherit its ML ``estimate``) plus :class:`~repro.core.sparse.SparseExaLogLog`
    in either mode. Rows are grouped by parameterisation, ``(params, v)``
    (a plain ExaLogLog holds no tokens and joins ``DEFAULT_V``): each
    group's dense register rows, then its token sets, go through
    :func:`estimate_chunk` in chunks of :data:`ESTIMATE_CHUNK_ROWS`, one
    solve each (a point read's single row takes the scalar Algorithm 8).
    Anything unbatchable (overridden estimators, register widths beyond
    int64) falls back to its own ``estimate()``. Results are bit-identical
    to per-sketch estimation.
    """
    from repro.backends.bulk import supports_int64_registers
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog
    from repro.core.token import DEFAULT_V

    estimates = np.zeros(len(sketches))
    # (params id, v) -> [params, v, dense positions, dense sketches, token
    # positions, token sets]. Parameter objects are interned (make_params
    # caches), so a sketch costs id()-keyed dict probes only.
    blocks: dict[tuple, list] = {}
    batchable: dict[tuple, bool] = {}

    def block_of(params, v: int) -> list:
        block = blocks.get((id(params), v))
        if block is None:
            block = blocks[id(params), v] = [params, v, array("q"), [], array("q"), []]
        return block

    for i, sketch in enumerate(sketches):
        target, v = sketch, DEFAULT_V
        if isinstance(target, SparseExaLogLog):
            v = target._v
            if target._tokens is not None:
                block = block_of(target._params, v)
                block[4].append(i)
                block[5].append(target._tokens)
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
                block = block_of(params, v)
                block[2].append(i)
                block[3].append(target)
                continue
        estimates[i] = sketch.estimate()
    for params, v, dense_at, dense, token_at, token_sets in blocks.values():
        positions = np.frombuffer(dense_at + token_at, dtype=np.int64)
        dtype = np.int32 if params.register_bits <= 31 else np.int64
        for start in range(0, len(positions), ESTIMATE_CHUNK_ROWS):
            stop = start + ESTIMATE_CHUNK_ROWS
            members = dense[start:stop]
            # Assembled straight into the kernel's dtype.
            matrix = np.empty((len(members), params.m), dtype=dtype)
            for row, sketch in enumerate(members):
                matrix[row] = sketch.registers_array()
            sets = token_sets[max(start - len(dense), 0) : max(stop - len(dense), 0)]
            tokens = None
            if sets:
                lengths = [len(token_set) for token_set in sets]
                rows = len(members) + len(sets)
                tokens = (
                    np.repeat(np.arange(len(members), rows), lengths),
                    np.fromiter(
                        chain.from_iterable(sets),
                        dtype=np.uint64 if v + 6 > 63 else np.int64,
                        count=sum(lengths),
                    ),
                    rows,
                    v,
                )
            estimates[positions[start:stop]] = estimate_chunk(
                matrix, params, tokens, bias_correction
            )
    return estimates.tolist()


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


def top_positions(values, count: int) -> "tuple[np.ndarray, np.ndarray]":
    """Positions of the values above the ``count``-th largest of ``values``,
    and of those equal to it (all positions are above when ``count``
    covers them); ``np.argpartition`` finds that value in O(len(values)).
    """
    values = np.asarray(values, dtype=np.float64)
    empty = np.zeros(0, dtype=np.int64)
    if count <= 0:
        return empty, empty
    if count >= len(values):
        return np.arange(len(values)), empty
    threshold = values[np.argpartition(-values, count - 1)[:count]].min()
    return np.flatnonzero(values > threshold), np.flatnonzero(values == threshold)


def rank(rows, count: int) -> "list[tuple[bytes, float]]":
    """The first ``count`` ``(key, estimate)`` rows by descending estimate,
    ties by ascending key: the one order of every ``top``."""
    if count <= 0:
        return []
    ordered = sorted([(-value, key) for key, value in rows])[:count]
    return [(key, -negated) for negated, key in ordered]
