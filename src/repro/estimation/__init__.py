"""Shared statistical estimation machinery (paper Sec. 3 and Appendix A)."""

from repro.estimation.batch import (
    BatchCoefficients,
    BatchMLSolution,
    batch_estimate_sketches,
    batch_estimates_by_key,
    estimate_registers,
    register_coefficients,
    solve_ml_equations,
)
from repro.estimation.likelihood import (
    f_transformed,
    log_likelihood,
    log_likelihood_derivative,
)
from repro.estimation.newton import (
    MAX_ITERATIONS,
    MLSolution,
    solve_ml_equation,
    solve_ml_equation_bisection,
)

__all__ = [
    "MAX_ITERATIONS",
    "BatchCoefficients",
    "BatchMLSolution",
    "MLSolution",
    "batch_estimate_sketches",
    "batch_estimates_by_key",
    "estimate_registers",
    "f_transformed",
    "log_likelihood",
    "log_likelihood_derivative",
    "register_coefficients",
    "solve_ml_equation",
    "solve_ml_equation_bisection",
    "solve_ml_equations",
]
