"""Robust Newton solver for the ML equation (paper Appendix A, Alg. 8).

The log-likelihood of every sketch in this library — ExaLogLog registers
(Eq. (15)), hash tokens (Eq. (26)), HyperLogLog and PCSA states — has the
common shape

    ln L(nu) = -nu * alpha + sum_u beta_u * ln(1 - exp(-nu / 2**u)),

where ``nu = n / m`` is the per-register Poisson rate, ``alpha > 0`` and the
``beta_u`` are non-negative integers. Substituting
``x = exp(nu / 2**u_max) - 1`` turns the ML equation into ``f(x) = 0`` with
``f`` strictly increasing and concave for ``x >= 0`` (Lemma B.2), so Newton
iteration from any lower bound of the root converges monotonically. All
register exponents are powers of two, which allows the recursions
(20)-(22) and (28)-(30) to evaluate ``f`` with multiplications only — this
solver transcribes Algorithm 8, with two safeguards around its unchanged
Newton update:

* The start is Lemma B.3's Jensen-inequality bound, raised to the largest
  root of a single term (:func:`single_term_bound`). Lemma B.3 alone can
  start orders of magnitude low when the count of a small exponent
  dominates at a small ``alpha``; each Newton step then gains only about
  one unit of that term's ``2**j x``.
* A step of at most :data:`CONVERGED_STEP` ends the solve, instead of
  creeping on by rounding noise one ulp per iteration.

Together they keep every solve within the 10 iterations of Appendix A,
also on coefficients no sketch produces; against the plain algorithm they
move a root by a few ulps at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

#: Hard iteration cap. The paper reports the Newton iteration never exceeded
#: 10 in any experiment; we allow slack and assert the claim in tests.
MAX_ITERATIONS = 64

#: A Newton step that raises ``x`` by at most this factor ends the solve.
#: Convergence is quadratic, so the error left after such a step is of the
#: order of its square, far below one ulp; further steps would only move
#: ``x`` by the rounding noise of ``phi - alpha' x``.
CONVERGED_STEP = 1.0 + 2.0 ** -50


@dataclass(frozen=True)
class MLSolution:
    """Result of an ML equation solve."""

    nu: float
    """Estimated Poisson rate per register (``n_hat / m``)."""

    iterations: int
    """Number of Newton iterations performed."""

    saturated: bool = False
    """True when alpha was zero (all registers saturated, estimate infinite)."""


def solve_ml_equation(alpha: float, beta: Mapping[int, int]) -> MLSolution:
    """Solve ``d/d nu ln L = 0`` for the likelihood shape above.

    Parameters
    ----------
    alpha:
        The linear coefficient (Algorithm 3 / Algorithm 7). Must be >= 0.
    beta:
        Mapping from exponent ``u`` to the non-negative count ``beta_u``.
        Exponents with zero count may be present and are ignored.

    Returns
    -------
    MLSolution with ``nu`` equal to ``m * 2**u_max * ln(1 + x_root) / m``
    (i.e. already divided by m — the caller multiplies by its m).
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")

    sigma0 = 0.0
    sigma1 = 0.0
    u_min = -1
    u_max = 0
    for u in sorted(beta):
        count = beta[u]
        if count < 0:
            raise ValueError(f"beta[{u}] must be non-negative, got {count}")
        if count > 0:
            if u_min < 0:
                u_min = u
            u_max = u
            sigma0 += count
            sigma1 += count * 2.0 ** (-u)

    if u_min < 0:
        # All beta_u zero: every register is in its initial state.
        return MLSolution(nu=0.0, iterations=0)
    if alpha == 0.0:
        # All registers saturated; only realistic far beyond the exa-scale.
        return MLSolution(nu=math.inf, iterations=0, saturated=True)

    beta_dense = [0] * (u_max - u_min + 1)
    for u, count in beta.items():
        if count > 0:
            beta_dense[u_max - u] = count

    sigma1 *= 2.0 ** u_max
    a_scaled = alpha * 2.0 ** u_max

    x = sigma1 / a_scaled
    if u_min < u_max:
        # Lemma B.3 lower bound, as ln(1 + x), raised to the largest
        # single-term root; for u_min == u_max, x is already the root.
        log_x = math.log1p(x) * (sigma0 / sigma1)
        if max(beta_dense) / a_scaled > log_x:
            log_x = single_term_bound(log_x, beta_dense, a_scaled)
        x = math.expm1(log_x)

    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ArithmeticError(
                "Newton iteration failed to converge; this indicates a bug "
                f"(alpha={alpha!r}, beta={dict(beta)!r})"
            )
        # Sum phi (17) and psi (28) with the recursions (20)-(22), (30).
        lam = 1.0
        eta = 0.0
        y = x
        u = u_max
        phi_val = float(beta_dense[0])
        psi_val = 0.0
        while u > u_min:
            u -= 1
            z = 2.0 / (2.0 + y)
            lam *= z
            eta = eta * (2.0 - z) + (1.0 - z)
            count = beta_dense[u_max - u]
            if count:
                phi_val += count * lam
                psi_val += count * lam * eta
            if u <= u_min:
                break
            y = y * (y + 2.0)

        x_scaled = a_scaled * x
        if phi_val <= x_scaled:
            # f(x) >= 0: we are at (or numerically past) the root.
            break
        x_old = x
        x = x * (1.0 + (phi_val - x_scaled) / (psi_val + x_scaled))
        if x <= x_old:
            # Numerically converged.
            x = x_old
            break
        if x <= x_old * CONVERGED_STEP:
            break

    return MLSolution(nu=(2.0 ** u_max) * math.log1p(x), iterations=iterations)


def single_term_bound(log_x: float, counts, a_scaled: float) -> float:
    """Raise a lower bound ``ln(1 + x)`` of the root to the largest
    single-term root.

    ``counts[j]`` is ``beta_{u_max - j}`` and ``a_scaled`` is
    ``alpha * 2**u_max``. Keeping only term ``j`` of the sum in Eq. (18)
    gives an ``f_j >= f``, so its root ``ln(1 + x_j) = ln(1 + beta 2**j /
    alpha') / 2**j`` bounds the root of ``f`` from below. As ``ln(1 + c) <=
    c``, only a term with ``beta / alpha' > ln(1 + x)`` can raise the bound,
    and only those are evaluated. The batch solver calls this for its rows
    too, so both routes start from the same bits.
    """
    bound = log_x
    for j, count in enumerate(counts):
        if count / a_scaled > bound:
            scale = 2.0 ** j
            bound = max(bound, math.log1p(count * scale / a_scaled) / scale)
    return bound


def solve_ml_equation_bisection(
    alpha: float, beta: Mapping[int, int], tolerance: float = 1e-12
) -> float:
    """Reference solver via bisection on ``d/d nu ln L`` (tests/ablation).

    Slow but independent of Algorithm 8's algebra; used to validate the
    Newton solver and by the solver ablation bench.
    """
    items = [(u, c) for u, c in beta.items() if c > 0]
    if not items:
        return 0.0
    if alpha <= 0.0:
        return math.inf

    def derivative(nu: float) -> float:
        # d/d nu ln L = -alpha + sum beta_u * 2**-u / (exp(nu * 2**-u) - 1)
        total = -alpha
        for u, count in items:
            scale = 2.0 ** -u
            z = nu * scale
            if z < 700.0:  # beyond this the term underflows to zero
                total += count * scale / math.expm1(z)
        return total

    low = 1e-300
    high = 1.0
    while derivative(high) > 0.0:
        high *= 2.0
        if high > 1e300:
            return math.inf
    for _ in range(4096):
        mid = 0.5 * (low + high)
        if derivative(mid) > 0.0:
            low = mid
        else:
            high = mid
        if high - low <= tolerance * max(1.0, low):
            break
    return 0.5 * (low + high)
