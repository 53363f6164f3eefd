"""The solver's histograms read the same on both routes of Algorithm 8."""

from __future__ import annotations

import numpy as np

from repro.core.params import make_params
from repro.estimation import batch
from repro.obs import metrics

from tests.estimation.test_batch_estimation import random_registers

_HISTOGRAMS = ("estimation.solve_batch_size", "estimation.newton_iterations")


def _observations():
    """Bucket counts, sum and count of the solver's two histograms."""
    state = {}
    for name in _HISTOGRAMS:
        histogram = metrics.REGISTRY.get(name)
        state[name] = (list(histogram.counts), histogram.sum, histogram.count)
    return state


def test_scalar_and_simultaneous_routes_record_the_same_observations(monkeypatch):
    params = make_params(2, 20, 8)
    rng = np.random.Generator(np.random.PCG64(0x0B5))
    kinds = ["empty", "saturated", "single"] + ["random"] * 9
    rows = [random_registers(params, rng, kind) for kind in kinds]
    coefficients = batch.register_coefficients(np.array(rows, dtype=np.int64), params)

    recorded = {}
    for route, crossover in (("scalar", len(rows)), ("simultaneous", 0)):
        monkeypatch.setattr(batch, "SCALAR_SOLVE_ROWS", crossover)
        metrics.reset()
        with metrics.instrumented():
            solution = batch.solve_ml_equations(coefficients.alpha, coefficients.beta)
        recorded[route] = (_observations(), solution.iterations.tolist())

    assert recorded["scalar"] == recorded["simultaneous"]
    state, iterations = recorded["scalar"]
    assert state["estimation.solve_batch_size"][2] == 1
    # One observation per solved row: the empty and saturated rows take none.
    assert state["estimation.newton_iterations"][2] == len(rows) - 2
    assert state["estimation.newton_iterations"][1] == sum(iterations)
