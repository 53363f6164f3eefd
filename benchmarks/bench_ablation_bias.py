"""Ablation: the first-order bias correction Eq. (4) on/off.

At small precision the raw ML estimate is biased high by ~c/m; Eq. (4)
removes most of it. The bench measures the mean relative error with and
without the correction at p = 4 (where the effect is visible).
"""

from _common import record_rows, run_once

from repro.backends import exaloglog_state
from repro.core.mlestimation import compute_coefficients, estimate_from_coefficients
from repro.core.params import make_params
from repro.experiments.common import env_int
from repro.simulation.rng import numpy_generator, random_hashes

RUNS = env_int("REPRO_RUNS_ABLATION", 1000)


def test_bias_correction(benchmark):
    # p = 4 (m = 16) and n ~ 30 m: the regime where the O(1/m) bias is
    # visible; at 1000 runs the Monte-Carlo error of the mean (~0.3 %) is
    # well below the expected ~0.7 % bias.
    params = make_params(2, 20, 4)
    n = 500

    def run():
        raw_sum = corrected_sum = 0.0
        for seed in range(RUNS):
            hashes = random_hashes(numpy_generator(0xB1A5, seed), n)
            coefficients = compute_coefficients(
                exaloglog_state(hashes, params), params
            )
            raw_sum += (
                estimate_from_coefficients(coefficients, params, bias_correction=False)
                / n
                - 1.0
            )
            corrected_sum += (
                estimate_from_coefficients(coefficients, params, bias_correction=True)
                / n
                - 1.0
            )
        return [
            {
                "estimator": "ML without Eq. (4)",
                "mean_relative_error": raw_sum / RUNS,
            },
            {
                "estimator": "ML with Eq. (4)",
                "mean_relative_error": corrected_sum / RUNS,
            },
        ]

    rows = run_once(benchmark, run)
    record_rows("ablation_bias", f"Bias correction at p=4 ({RUNS} runs)", rows)
    raw = rows[0]["mean_relative_error"]
    corrected = rows[1]["mean_relative_error"]
    assert raw > 0.0                       # uncorrected ML is biased high
    assert abs(corrected) < abs(raw)       # the correction helps
