"""Ablation: Algorithm 8's Newton solver vs generic root finding.

The paper's Appendix A argues for a custom Newton iteration (power-of-two
recursions, Jensen starting point). This bench quantifies the design
choice: iterations and wall time against plain bisection on the same
likelihoods, plus the correctness cross-check.
"""

import time

import pytest
from _common import record_rows, run_once

from repro.backends import exaloglog_state
from repro.core.mlestimation import compute_coefficients
from repro.core.params import make_params
from repro.estimation.newton import solve_ml_equation, solve_ml_equation_bisection
from repro.simulation.rng import numpy_generator, random_hashes


def _coefficient_sets():
    params = make_params(2, 20, 8)
    sets = []
    for seed, n in enumerate((10, 1000, 100_000)):
        hashes = random_hashes(numpy_generator(seed, 0), n)
        coefficients = compute_coefficients(exaloglog_state(hashes, params), params)
        sets.append((n, coefficients))
    return params, sets


def test_newton_vs_bisection(benchmark):
    params, sets = _coefficient_sets()

    def run():
        rows = []
        for n, coefficients in sets:
            start = time.perf_counter()
            for _ in range(50):
                solution = solve_ml_equation(coefficients.alpha, coefficients.beta)
            newton_time = (time.perf_counter() - start) / 50
            start = time.perf_counter()
            for _ in range(5):
                bisected = solve_ml_equation_bisection(
                    coefficients.alpha, coefficients.beta
                )
            bisect_time = (time.perf_counter() - start) / 5
            rows.append(
                {
                    "n": n,
                    "newton_iterations": solution.iterations,
                    "newton_s": newton_time,
                    "bisection_s": bisect_time,
                    "speedup": bisect_time / newton_time,
                    "relative_difference": abs(solution.nu - bisected)
                    / max(bisected, 1e-12),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    record_rows("ablation_solver", "Newton (Alg. 8) vs bisection", rows)
    for row in rows:
        assert row["newton_iterations"] <= 10          # Appendix A claim
        assert row["relative_difference"] < 1e-6        # same root
        assert row["speedup"] > 3.0                     # the design pays off
