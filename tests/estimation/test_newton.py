"""Algorithm 8 (Newton solver) against brute force and Lemmas B.2/B.3."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.estimation.likelihood import (
    f_transformed,
    log_likelihood,
    log_likelihood_derivative,
)
from repro.estimation.newton import (
    MLSolution,
    single_term_bound,
    solve_ml_equation,
    solve_ml_equation_bisection,
)

beta_strategy = st.dictionaries(
    keys=st.integers(min_value=1, max_value=40),
    values=st.integers(min_value=0, max_value=500),
    max_size=12,
)


class TestEdgeCases:
    def test_empty_beta(self):
        assert solve_ml_equation(1.0, {}) == MLSolution(nu=0.0, iterations=0)

    def test_all_zero_beta(self):
        assert solve_ml_equation(1.0, {3: 0, 5: 0}).nu == 0.0

    def test_alpha_zero_saturated(self):
        solution = solve_ml_equation(0.0, {3: 5})
        assert math.isinf(solution.nu)
        assert solution.saturated

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            solve_ml_equation(-0.1, {3: 1})

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            solve_ml_equation(1.0, {3: -1})

    def test_single_term_closed_form(self):
        """With u_min == u_max the root is beta/(alpha 2**u) exactly."""
        alpha, u, count = 3.0, 5, 17
        nu = solve_ml_equation(alpha, {u: count}).nu
        x = math.expm1(nu / 2 ** u)
        assert x == pytest.approx(count / (alpha * 2 ** u), rel=1e-12)


class TestAgainstBisection:
    @given(beta=beta_strategy, alpha=st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_bisection(self, beta, alpha):
        if not any(beta.values()):
            return
        newton = solve_ml_equation(alpha, beta).nu
        bisected = solve_ml_equation_bisection(alpha, beta)
        assert newton == pytest.approx(bisected, rel=1e-6)

    @given(beta=beta_strategy, alpha=st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_vanishes_at_root(self, beta, alpha):
        if not any(beta.values()):
            return
        nu = solve_ml_equation(alpha, beta).nu
        derivative = log_likelihood_derivative(nu, alpha, beta)
        scale = alpha + sum(beta.values())
        assert abs(derivative) < 1e-6 * scale

    @given(beta=beta_strategy, alpha=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=80, deadline=None)
    def test_root_is_maximum(self, beta, alpha):
        if not any(beta.values()):
            return
        nu = solve_ml_equation(alpha, beta).nu
        best = log_likelihood(nu, alpha, beta)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert log_likelihood(nu * factor, alpha, beta) <= best + 1e-9


class TestIterationBound:
    # From Lemma B.3's start alone these took 11 and 15 iterations: a
    # small exponent's count dominates at a small alpha.
    @example(
        beta={16: 0, 21: 156, 1: 227, 18: 1, 5: 36, 2: 0, 3: 0, 9: 62, 15: 396},
        alpha=0.001,
    )
    @example(beta={3: 500, 7: 500, 14: 0, 27: 1, 8: 1, 25: 0}, alpha=0.001)
    @given(beta=beta_strategy, alpha=st.floats(min_value=0.001, max_value=10000.0))
    @settings(max_examples=200, deadline=None)
    def test_paper_claim_max_10(self, beta, alpha):
        """Appendix A: 'the number of iterations never exceeded 10'."""
        solution = solve_ml_equation(alpha, beta)
        assert solution.iterations <= 10


class TestLemmaB2:
    """f is strictly increasing and concave for x >= 0."""

    @given(
        beta=beta_strategy.filter(lambda b: any(b.values())),
        alpha=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_increasing_and_concave_numerically(self, beta, alpha):
        xs = [0.01 * 1.7 ** i for i in range(20)]
        values = [f_transformed(x, alpha, beta) for x in xs]
        slopes = [
            (values[i + 1] - values[i]) / (xs[i + 1] - xs[i])
            for i in range(len(xs) - 1)
        ]
        assert all(b > a - 1e-9 for a, b in zip(values, values[1:]))
        assert all(s2 <= s1 * (1 + 1e-6) + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


class TestLemmaB3:
    """The starting point brackets the root from below."""

    @given(
        beta=beta_strategy.filter(lambda b: any(b.values())),
        alpha=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_start_below_root(self, beta, alpha):
        active = {u: c for u, c in beta.items() if c}
        u_max = max(active)
        sigma0 = sum(active.values())
        sigma1 = sum(c * 2.0 ** (u_max - u) for u, c in active.items())
        start = math.expm1(
            math.log1p(sigma1 / (alpha * 2.0 ** u_max)) * sigma0 / sigma1
        )
        upper = sigma0 / (alpha * 2.0 ** u_max)
        nu = solve_ml_equation(alpha, active).nu
        root_x = math.expm1(nu / 2.0 ** u_max)
        assert start <= root_x * (1 + 1e-9)
        assert root_x <= upper * (1 + 1e-9)

    @given(
        beta=beta_strategy.filter(lambda b: sum(1 for c in b.values() if c) > 1),
        alpha=st.floats(min_value=0.001, max_value=100.0),
    )
    @example(beta={3: 500, 7: 500, 27: 1, 8: 1}, alpha=0.001)
    @settings(max_examples=80, deadline=None)
    def test_single_term_bound_below_root(self, beta, alpha):
        active = {u: c for u, c in beta.items() if c}
        u_max = max(active)
        a_scaled = alpha * 2.0 ** u_max
        sigma0 = sum(active.values())
        sigma1 = sum(c * 2.0 ** (u_max - u) for u, c in active.items())
        lemma = math.log1p(sigma1 / a_scaled) * sigma0 / sigma1
        counts = [active.get(u_max - j, 0) for j in range(u_max - min(active) + 1)]
        bound = single_term_bound(lemma, counts, a_scaled)
        root_x = math.expm1(solve_ml_equation_bisection(alpha, active) / 2.0 ** u_max)
        assert lemma <= bound
        assert math.expm1(bound) <= root_x * (1 + 1e-9)
