"""Scalar <-> vectorised estimation equivalence (exact float equality).

The batch engine's contract is bit-for-bit equality with the scalar
Algorithm 3 / Algorithm 8 pipeline — coefficients, Newton iterates,
``saturated``/empty handling, bias correction, all of it. Every test here
asserts ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.hyperloglog import HyperLogLog
from repro.baselines.pcsa import PCSA
from repro.core.exaloglog import ExaLogLog
from repro.core.mlestimation import (
    compute_coefficients,
    estimate_from_coefficients,
    solve_from_coefficients,
)
from repro.core.params import make_params
from repro.core.sparse import SparseExaLogLog
from repro.core.token import estimate_from_tokens
from repro.estimation.batch import (
    batch_estimate_sketches,
    estimate_registers,
    register_coefficients,
    solve_ml_equations,
)
from repro.estimation.newton import solve_ml_equation

#: Parameter grid covering the LUT window path (t >= 1, 4 <= d <= 24),
#: the generic loop path (d outside that band), and the d = 0 special case.
PARAMS = [
    (2, 20, 8),
    (2, 20, 4),
    # p = 10/11 with t = 2 cross the packed-slot capacity boundaries
    # (m * 2**t at and above 2**12) — the saturated row is the adversarial
    # case where one (row, u) bucket reaches the full m * 2**t count.
    (2, 20, 10),
    (2, 20, 11),
    (2, 16, 5),
    (2, 24, 6),
    (1, 9, 6),
    (3, 7, 4),
    (0, 0, 11),
    (0, 2, 10),
    (0, 30, 4),
]


def random_registers(params, rng, kind):
    """A register row: random, empty, saturated, or single-occupied."""
    d = params.d
    if kind == "empty":
        return [0] * params.m
    if kind == "saturated":
        return [params.max_register_value] * params.m
    if kind == "single":
        registers = [0] * params.m
        u = min(3, params.max_update_value)
        low = int(rng.integers(0, 1 << min(d, 20))) if d else 0
        registers[0] = (u << d) | low
        return registers
    u = rng.integers(0, params.max_update_value + 1, size=params.m)
    if d:
        low = rng.integers(0, 1 << min(d, 62), size=params.m, dtype=np.uint64)
    else:
        low = np.zeros(params.m, dtype=np.uint64)
    return [
        (int(value) << d) | (int(bits) & ((1 << d) - 1))
        for value, bits in zip(u, low)
    ]


@pytest.mark.parametrize("t,d,p", PARAMS)
def test_register_coefficients_match_scalar(t, d, p):
    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(t * 1000 + d * 10 + p))
    kinds = ["empty", "saturated", "single"] + ["random"] * 17
    rows = [random_registers(params, rng, kind) for kind in kinds]
    batch = register_coefficients(np.array(rows, dtype=np.int64), params)
    for i, registers in enumerate(rows):
        scalar = compute_coefficients(registers, params)
        # alpha' is exact modulo 2**64 (the all-empty row wraps 2**64 to 0
        # and is handled by the is_empty mask before alpha is used).
        assert int(batch.alpha_scaled[i]) == scalar.alpha_scaled % (1 << 64)
        dense = {e: int(c) for e, c in enumerate(batch.beta[i]) if c}
        assert dense == scalar.beta
        assert bool(batch.is_empty[i]) == scalar.is_empty
        if not scalar.is_empty:
            assert float(batch.alpha[i]) == scalar.alpha
            assert bool(batch.is_saturated[i]) == scalar.is_saturated


@pytest.mark.parametrize("t,d,p", PARAMS)
def test_batched_estimates_match_scalar(t, d, p):
    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(0xE5 + t * 100 + d * 10 + p))
    kinds = ["empty", "saturated", "single"] + ["random"] * 13
    rows = [random_registers(params, rng, kind) for kind in kinds]
    matrix = np.array(rows, dtype=np.int64)
    for bias in (True, False):
        estimates = estimate_registers(matrix, params, bias)
        for i, registers in enumerate(rows):
            scalar = estimate_from_coefficients(
                compute_coefficients(registers, params), params, bias
            )
            assert float(estimates[i]) == scalar  # exact, including inf


@pytest.mark.parametrize("t,d,p", PARAMS)
def test_batched_solver_matches_scalar(t, d, p):
    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(0x50 + t * 100 + d * 10 + p))
    kinds = ["empty", "saturated", "single"] + ["random"] * 13
    rows = [random_registers(params, rng, kind) for kind in kinds]
    batch = register_coefficients(np.array(rows, dtype=np.int64), params)
    solution = solve_ml_equations(batch.alpha, batch.beta)
    for i, registers in enumerate(rows):
        scalar = solve_from_coefficients(compute_coefficients(registers, params), params)
        assert float(solution.nu[i]) == scalar.nu
        assert int(solution.iterations[i]) == scalar.iterations
        assert bool(solution.saturated[i]) == scalar.saturated


def test_saturated_and_normal_mixed_in_one_batch():
    """``saturated`` must propagate per row, not poison the batch."""
    params = make_params(2, 20, 4)
    rng = np.random.Generator(np.random.PCG64(9))
    rows = [
        random_registers(params, rng, "saturated"),
        random_registers(params, rng, "random"),
        random_registers(params, rng, "empty"),
        random_registers(params, rng, "random"),
    ]
    estimates = estimate_registers(np.array(rows, dtype=np.int64), params)
    import math

    assert math.isinf(float(estimates[0]))
    assert float(estimates[2]) == 0.0
    for i in (1, 3):
        scalar = estimate_from_coefficients(
            compute_coefficients(rows[i], params), params
        )
        assert float(estimates[i]) == scalar and math.isfinite(scalar)


def test_solver_rejects_negative_inputs():
    with pytest.raises(ValueError):
        solve_ml_equations(np.array([-1.0]), np.zeros((1, 5), dtype=np.int64))
    beta = np.zeros((1, 5), dtype=np.int64)
    beta[0, 2] = -3
    with pytest.raises(ValueError):
        solve_ml_equations(np.array([1.0]), beta)


def test_estimate_fast_path_matches_scalar_pipeline():
    """ExaLogLog.estimate (m >= 256 fast path) equals the scalar path."""
    rng = np.random.Generator(np.random.PCG64(11))
    sketch = ExaLogLog(2, 20, 8)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=5000, dtype=np.uint64))
    scalar = estimate_from_coefficients(
        compute_coefficients(sketch.registers, sketch.params), sketch.params
    )
    assert sketch.estimate() == scalar


def test_registers_array_cache_invalidation():
    """Scalar mutations after a bulk ingest must invalidate the cache."""
    rng = np.random.Generator(np.random.PCG64(12))
    sketch = ExaLogLog(2, 20, 8)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=1000, dtype=np.uint64))
    assert sketch.registers_array().tolist() == list(sketch.registers)
    # add_hash mutates the list in place -> cache must refresh
    for value in rng.integers(0, 1 << 64, size=300, dtype=np.uint64).tolist():
        sketch.add_hash(int(value))
    assert sketch.registers_array().tolist() == list(sketch.registers)
    scalar = estimate_from_coefficients(
        compute_coefficients(sketch.registers, sketch.params), sketch.params
    )
    assert sketch.estimate() == scalar
    # merge_inplace mutates in place as well
    other = ExaLogLog(2, 20, 8)
    other.add_hashes(rng.integers(0, 1 << 64, size=500, dtype=np.uint64))
    sketch.merge_inplace(other)
    assert sketch.registers_array().tolist() == list(sketch.registers)
    # wholesale replacement (from_registers path) is detected by identity
    clone = ExaLogLog.from_registers(sketch.params, sketch.registers)
    assert clone.registers_array().tolist() == list(sketch.registers)


def test_batch_estimate_sketches_mixed_modes_and_params():
    """Dense, sparse-token and differently-parameterised sketches mix."""
    rng = np.random.Generator(np.random.PCG64(13))
    sketches = []
    dense = ExaLogLog(2, 20, 8)
    dense.add_hashes(rng.integers(0, 1 << 64, size=3000, dtype=np.uint64))
    sketches.append(dense)
    sparse = SparseExaLogLog(2, 20, 8)
    sparse.add_hashes(rng.integers(0, 1 << 64, size=50, dtype=np.uint64))
    assert sparse.is_sparse
    sketches.append(sparse)
    densified = SparseExaLogLog(2, 20, 8)
    densified.add_hashes(rng.integers(0, 1 << 64, size=5000, dtype=np.uint64))
    assert not densified.is_sparse
    sketches.append(densified)
    other_params = ExaLogLog(1, 9, 6)
    other_params.add_hashes(rng.integers(0, 1 << 64, size=700, dtype=np.uint64))
    sketches.append(other_params)
    sketches.append(ExaLogLog(2, 20, 8))  # empty
    results = batch_estimate_sketches(sketches)
    for value, sketch in zip(results, sketches):
        assert value == sketch.estimate()
    # the sparse token row reproduces Algorithm 7 exactly
    assert results[1] == estimate_from_tokens(sparse.tokens, sparse.v)


def test_hyperloglog_many_match_scalar():
    rng = np.random.Generator(np.random.PCG64(14))
    sketches = []
    for n in (0, 3, 200, 20000):
        sketch = HyperLogLog(10)
        sketch.add_hashes(rng.integers(0, 1 << 64, size=n, dtype=np.uint64))
        sketches.append(sketch)
    ml = HyperLogLog.estimate_ml_many(sketches)
    raw = HyperLogLog.estimate_raw_many(sketches)
    params = make_params(0, 0, 10)
    for i, sketch in enumerate(sketches):
        reference = estimate_from_coefficients(
            compute_coefficients(sketch.registers, params), params
        )
        assert float(ml[i]) == reference == sketch.estimate_ml()
        assert float(raw[i]) == sketch.estimate_raw()


def test_pcsa_many_match_scalar():
    rng = np.random.Generator(np.random.PCG64(15))
    sketches = []
    for n in (0, 3, 200, 20000):
        sketch = PCSA(9)
        sketch.add_hashes(rng.integers(0, 1 << 64, size=n, dtype=np.uint64))
        sketches.append(sketch)
    ml = PCSA.estimate_ml_many(sketches)
    fm = PCSA.estimate_fm_many(sketches)
    for i, sketch in enumerate(sketches):
        alpha, beta = sketch._ml_coefficients()
        reference = sketch.m * solve_ml_equation(alpha, beta).nu
        assert float(ml[i]) == reference == sketch.estimate_ml()
        assert float(fm[i]) == sketch.estimate_fm()


def test_aggregator_estimates_and_top_batched():
    from repro.aggregate import DistinctCountAggregator

    rng = np.random.Generator(np.random.PCG64(16))
    for sparse in (True, False):
        aggregator = DistinctCountAggregator(p=8, sparse=sparse)
        groups = rng.integers(0, 40, size=8000)
        items = rng.integers(0, 1 << 62, size=8000)
        aggregator.add_batch(groups, items)
        estimates = aggregator.estimates()
        for key, sketch in aggregator._groups.items():
            assert estimates[key] == sketch.estimate()
        ranked = sorted(estimates.items(), key=lambda kv: -kv[1])
        assert aggregator.top(7) == ranked[:7]
        assert aggregator.top(10_000) == ranked
        assert aggregator.top(0) == []


def test_aggregator_scalar_top_fallback_matches_batched():
    from repro.aggregate import DistinctCountAggregator

    rng = np.random.Generator(np.random.PCG64(19))
    aggregator = DistinctCountAggregator(p=8, sparse=True)
    groups = rng.integers(0, 25, size=3000)
    items = rng.integers(0, 1 << 62, size=3000)
    aggregator.add_batch(groups, items)
    # sorted() is stable, so ties keep insertion order, as top() promises.
    ranked = sorted(aggregator.estimates().items(), key=lambda kv: -kv[1])
    for count in (1, 5, 25, 100):
        assert aggregator.top(count) == ranked[:count]


def test_registers_array_is_read_only():
    rng = np.random.Generator(np.random.PCG64(20))
    sketch = ExaLogLog(2, 20, 8)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=1000, dtype=np.uint64))
    array = sketch.registers_array()
    with pytest.raises(ValueError):
        array[0] = 5
    sketch.add_hash(7)  # scalar mutation after bulk: fresh cache, still read-only
    with pytest.raises(ValueError):
        sketch.registers_array()[0] = 5


def test_aggregator_top_breaks_ties_by_insertion_order():
    from repro.aggregate import DistinctCountAggregator

    aggregator = DistinctCountAggregator(p=8, sparse=False)
    for group in ("a", "b", "c", "d"):
        for item in range(40):
            aggregator.add(group, item)
    aggregator.add("tiny", "x")
    reference = sorted(
        aggregator.estimates().items(), key=lambda kv: -kv[1]
    )
    for count in (1, 2, 3, 4, 5):
        assert aggregator.top(count) == reference[:count]


def test_spilled_groupby_top(tmp_path):
    from repro.store.spill import SpilledGroupBy

    rng = np.random.Generator(np.random.PCG64(17))
    groupby = SpilledGroupBy(tmp_path / "spill", p=8, partitions=4)
    groups = rng.integers(0, 30, size=5000)
    items = rng.integers(0, 1 << 62, size=5000)
    groupby.add_batch(groups, items)
    estimates = groupby.estimates()
    ranked = sorted(estimates.items(), key=lambda kv: -kv[1])
    assert groupby.top(5) == ranked[:5]
    groupby.cleanup()


def test_replay_checkpoints_match_scalar_solve():
    """The batched checkpoint solve equals per-checkpoint scalar solves."""
    from repro.core.mlestimation import bias_correction_factor
    from repro.simulation.events import filter_state_changes, simulate_event_schedule
    from repro.simulation.replay import _ml_estimate, replay
    from repro.simulation.rng import numpy_generator

    params = make_params(2, 20, 4)
    checkpoints = [10.0, 100.0, 1000.0, 50000.0]
    schedule = simulate_event_schedule(
        params, checkpoints[-1], numpy_generator(0xAB, 0), n_exact=1000
    )
    schedule = filter_state_changes(schedule, params)
    result = replay(schedule, params, checkpoints)
    # re-derive every checkpoint estimate with the scalar solver from the
    # final state's coefficients recomputed from scratch at the end only
    # (intermediate states are what replay snapshots internally), so check
    # at least the final checkpoint exactly and the monotone count.
    factor = bias_correction_factor(params)
    scalar = compute_coefficients(result.registers, params)
    dense_beta = [scalar.beta.get(u, 0) for u in range(66)]
    expected, _ = _ml_estimate(scalar.alpha_scaled, dense_beta, params, factor)
    assert result.ml_estimates[-1] == expected


def test_batch_workspace_reused_across_calls():
    """``register_coefficients`` reuses its thread-local scratch buffers."""
    from repro.estimation.batch import (
        _WORKSPACE_LOCAL,
        register_coefficients,
        release_batch_workspaces,
    )

    params = make_params(2, 16, 8)
    rng = np.random.Generator(np.random.PCG64(43))
    matrix = np.array(
        [
            ExaLogLog(2, 16, 8)
            .add_hashes(rng.integers(0, 1 << 64, size=1500, dtype=np.uint64))
            .registers
            for _ in range(3)
        ],
        dtype=np.int64,
    )
    release_batch_workspaces()
    first_result = register_coefficients(matrix, params)
    workspace = _WORKSPACE_LOCAL.workspace
    assert workspace is not None
    second_result = register_coefficients(matrix, params)
    assert _WORKSPACE_LOCAL.workspace is workspace  # buffers reused, not realloced
    assert np.shares_memory(workspace.i32, _WORKSPACE_LOCAL.workspace.i32)
    assert np.array_equal(first_result.alpha_scaled, second_result.alpha_scaled)
    assert np.array_equal(first_result.beta, second_result.beta)
    release_batch_workspaces()
    assert _WORKSPACE_LOCAL.workspace is None
