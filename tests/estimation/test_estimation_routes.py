"""How the batch engine routes its rows: one rule per test.

:func:`repro.estimation.batch.solve_ml_equations` solves small calls row
by row through the scalar Algorithm 8 and larger ones simultaneously;
:func:`repro.estimation.batch.batch_estimate_sketches` goes in row chunks,
with Algorithm 7's token coefficients from one ``bincount`` per chunk.
Each route must equal the scalar pipeline bit for bit, so every test
asserts ``==`` on floats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.core.sparse import SparseExaLogLog
from repro.core.token import estimate_from_tokens
from repro.estimation import batch
from repro.estimation.batch import (
    SCALAR_SOLVE_ROWS,
    batch_estimate_sketches,
    register_coefficients,
    solve_ml_equations,
)
from repro.estimation.newton import solve_ml_equation

from tests.estimation.test_batch_estimation import PARAMS, random_registers


def _hashes(rng, count):
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _register_rows(params, rng, count):
    """``count`` rows of register coefficients: an empty row, a saturated
    row, then random ones."""
    kinds = ["empty", "saturated"] + ["random"] * (count - 2)
    rows = [random_registers(params, rng, kind) for kind in kinds]
    return register_coefficients(np.array(rows, dtype=np.int64), params)


def _assert_rows_equal_scalar(solution, alpha, beta):
    for i in range(len(alpha)):
        counts = {u: int(c) for u, c in enumerate(beta[i]) if c}
        scalar = solve_ml_equation(float(alpha[i]), counts)
        assert float(solution.nu[i]) == scalar.nu
        assert int(solution.iterations[i]) == scalar.iterations
        assert bool(solution.saturated[i]) == scalar.saturated


@pytest.mark.parametrize(
    "rows", [SCALAR_SOLVE_ROWS, SCALAR_SOLVE_ROWS + 1], ids=["scalar", "simultaneous"]
)
def test_solves_on_either_side_of_the_crossover_equal_the_scalar_solver(rows):
    params = make_params(2, 20, 8)
    rng = np.random.Generator(np.random.PCG64(rows))
    coefficients = _register_rows(params, rng, rows)
    assert bool(coefficients.is_empty[0]) and bool(coefficients.is_saturated[1])
    solution = solve_ml_equations(coefficients.alpha, coefficients.beta)
    _assert_rows_equal_scalar(solution, coefficients.alpha, coefficients.beta)
    assert math.isinf(float(solution.nu[1])) and float(solution.nu[0]) == 0.0


@pytest.mark.parametrize("t,d,p", PARAMS)
def test_simultaneous_route_equals_the_scalar_solver_on_every_parameterisation(
    t, d, p, monkeypatch
):
    monkeypatch.setattr(batch, "SCALAR_SOLVE_ROWS", 0)
    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(0x51 + t * 100 + d * 10 + p))
    coefficients = _register_rows(params, rng, 12)
    solution = solve_ml_equations(coefficients.alpha, coefficients.beta)
    _assert_rows_equal_scalar(solution, coefficients.alpha, coefficients.beta)


def test_simultaneous_route_equals_the_scalar_solver_where_the_start_is_raised(
    monkeypatch,
):
    """Rows whose small-exponent counts dominate at a small alpha start
    from a single-term root above Lemma B.3's bound, on both routes."""
    monkeypatch.setattr(batch, "SCALAR_SOLVE_ROWS", 0)
    rng = np.random.Generator(np.random.PCG64(0x5EED))
    rows = 48
    alpha = np.where(rng.random(rows) < 0.5, 0.001, 10.0 ** rng.uniform(-3, 4, rows))
    beta = np.zeros((rows, batch.EXPONENT_AXIS), dtype=np.int64)
    for i in range(1, rows):
        size = rng.integers(2, 12)
        exponents = rng.choice(np.arange(1, 41), size=size, replace=False)
        beta[i, exponents] = rng.choice([1, 500, rng.integers(0, 501)], len(exponents))
    beta[0, [3, 7, 8, 27]] = [500, 500, 1, 1]
    alpha[0] = 0.001
    solution = solve_ml_equations(alpha, beta)
    _assert_rows_equal_scalar(solution, alpha, beta)
    assert int(solution.iterations.max()) <= 10


def test_sigma_sums_follow_the_ascending_loop_where_np_sum_does_not():
    rng = np.random.Generator(np.random.PCG64(0x5164))
    beta = rng.integers(0, 400, size=(200, batch.EXPONENT_AXIS), dtype=np.int64)
    beta[rng.random(beta.shape) < 0.4] = 0
    sigma0, sigma1 = batch._sigma_sums(beta, 0)
    loop0, loop1 = [], []
    for row in beta.tolist():
        total0 = total1 = 0.0
        for u, count in enumerate(row):
            if count > 0:
                total0 += count
                total1 += count * 2.0 ** (-u)
        loop0.append(total0)
        loop1.append(total1)
    pairwise = (beta * np.ldexp(1.0, -np.arange(batch.EXPONENT_AXIS))).sum(axis=1)
    assert np.count_nonzero(pairwise != np.array(loop1)) > 0  # the rows that matter
    assert sigma0.tolist() == loop0
    assert sigma1.tolist() == loop1


@pytest.mark.parametrize("v", [10, 26, 58], ids=["v=p+t", "v=26", "v=58"])
def test_token_rows_equal_estimate_from_tokens(v):
    """Algorithm 7 from one bincount, including 64-bit tokens at v = 58
    and the j = 64 cap (hash 0 has the largest nlz field)."""
    rng = np.random.Generator(np.random.PCG64(v))
    sketches = []
    for count in (0, 1, 3, 40, 100, 110):
        sketch = SparseExaLogLog(2, 20, 8, v=v)
        hashes = _hashes(rng, count)
        hashes[:2] = [0, 1 << 63][: min(count, 2)]
        sketch.add_hashes(hashes)
        assert sketch.is_sparse
        sketches.append(sketch)
    if v == 58:
        assert max(max(s.tokens, default=0) for s in sketches) >= 1 << 63
    expected = [estimate_from_tokens(s.tokens, s.v) for s in sketches]
    for rows in (len(sketches), SCALAR_SOLVE_ROWS + 1):
        # A small call and one above the crossover (padded with copies).
        padded = (sketches * rows)[:rows]
        assert batch_estimate_sketches(padded) == (expected * rows)[:rows]


def test_chunked_estimates_equal_one_unsplit_call(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(0xC4))
    first = [ExaLogLog(2, 20, 8).add_hashes(_hashes(rng, 3000)) for _ in range(5)]
    first.append(SparseExaLogLog(2, 20, 8).add_hashes(_hashes(rng, 5000)))  # dense
    second = [ExaLogLog(1, 9, 6).add_hashes(_hashes(rng, 700)) for _ in range(4)]
    tokens = [
        SparseExaLogLog(2, 20, 8).add_hashes(_hashes(rng, count))
        for count in (5, 0, 60, 9, 120, 33, 2)
    ]
    rest = second + tokens + first[1:]
    sketches = first[:1] + [rest[i] for i in rng.permutation(len(rest)).tolist()]
    # Rows by parameterisation: ELL(2, 20, 8) (six dense rows, then seven
    # token rows, one DEFAULT_V group) and ELL(1, 9, 6) (four dense rows),
    # so chunks of 4 rows cut the first between dense and token rows.
    whole = batch_estimate_sketches(sketches)
    solves = []
    original = batch.solve_ml_equations
    monkeypatch.setattr(
        batch,
        "solve_ml_equations",
        lambda alpha, beta: solves.append(len(alpha)) or original(alpha, beta),
    )
    monkeypatch.setattr(batch, "ESTIMATE_CHUNK_ROWS", 4)
    assert batch_estimate_sketches(sketches) == whole
    assert solves == [4, 4, 4, 1, 4]
    assert whole == [sketch.estimate() for sketch in sketches]
