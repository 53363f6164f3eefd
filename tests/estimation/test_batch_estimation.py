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

#: Parameter grid of the one Algorithm 3 kernel: t = 0..3 (window fields
#: of 1 to 8 bits), d from 0 (HyperLogLog's ELL(0, 0)) to 57, registers
#: from int32 (ELL(2, 20) takes 28 bits) to 63 bits (int64), and packed
#: count slots at and above their capacity boundaries.
PARAMS = [
    (2, 20, 8),
    (2, 20, 4),
    # p = 10/11 with t = 2 cross a packed-slot boundary (13- and 14-bit
    # slots, four and three to a word) — the saturated row is the
    # adversarial case where one slot sums to the full m * 2**t count.
    (2, 20, 10),
    (2, 20, 11),
    (2, 16, 5),
    (2, 24, 6),
    (1, 9, 6),
    (3, 7, 4),
    (0, 0, 11),
    (0, 2, 10),
    (0, 30, 4),
    # 63-bit registers: the widest windows, up to 57 one-bit fields at
    # t = 0, and the clamp of phi at 64 - p on the last run of update values.
    (3, 54, 4),
    (2, 55, 6),
    (0, 57, 4),
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


@pytest.mark.parametrize("t,d,p", [(2, 20, 8), (3, 54, 4)], ids=["int32", "int64"])
def test_register_matrix_spanning_kernel_chunks_equals_row_by_row(t, d, p, monkeypatch):
    """Chunks of three rows: one all-empty, one with the saturated row,
    and each chunk's own largest u; every row gets its one-row result."""
    from repro.estimation import batch

    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(0xC0 + t * 100 + p))
    kinds = ["empty"] * 3 + ["saturated", "single", "random"] + ["random"] * 4
    rows = [random_registers(params, rng, kind) for kind in kinds]
    for count in (1, 40, 700, 20_000):
        sketch = ExaLogLog(t, d, p)
        sketch.add_hashes(rng.integers(0, 1 << 64, size=count, dtype=np.uint64))
        rows.append(sketch.registers)
    matrix = np.array(rows, dtype=np.int64)
    alone = [register_coefficients(matrix[i : i + 1], params) for i in range(len(rows))]
    monkeypatch.setattr(batch, "_CHUNK_REGISTERS", 3 * params.m)
    chunked = register_coefficients(matrix, params)
    for i, (registers, one) in enumerate(zip(rows, alone)):
        assert int(chunked.alpha_scaled[i]) == int(one.alpha_scaled[0])
        assert chunked.beta[i].tolist() == one.beta[0].tolist()
        scalar = compute_coefficients(registers, params)
        assert int(chunked.alpha_scaled[i]) == scalar.alpha_scaled % (1 << 64)


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


@pytest.mark.parametrize("p", [6, 7, 8])
def test_estimate_fast_path_matches_scalar_pipeline(p):
    """ExaLogLog.estimate equals the scalar path on both sides of its
    route threshold (m = 128 is the smallest vectorised m), and so does
    HyperLogLog.estimate_ml around its own (m = 256)."""
    from repro.baselines.hyperloglog import VECTORISED_ESTIMATE_M as HLL_M
    from repro.core.exaloglog import VECTORISED_ESTIMATE_M as ELL_M

    assert (ELL_M, HLL_M) == (1 << 7, 1 << 8)
    rng = np.random.Generator(np.random.PCG64(11))
    sketch = ExaLogLog(2, 20, p)
    sketch.add_hashes(rng.integers(0, 1 << 64, size=5000, dtype=np.uint64))
    scalar = estimate_from_coefficients(
        compute_coefficients(sketch.registers, sketch.params), sketch.params
    )
    assert sketch.estimate() == scalar
    hll = HyperLogLog(p + 1)
    hll.add_hashes(rng.integers(0, 1 << 64, size=5000, dtype=np.uint64))
    params = make_params(0, 0, p + 1)
    assert hll.estimate_ml() == estimate_from_coefficients(
        compute_coefficients(hll.registers, params), params
    )


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
        for key in aggregator.groups():
            assert estimates[key] == aggregator.group_sketch(key).estimate()
        ranked = sorted(estimates.items(), key=lambda kv: (-kv[1], kv[0]))
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
    ranked = sorted(aggregator.estimates().items(), key=lambda kv: (-kv[1], kv[0]))
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


@pytest.mark.parametrize("sparse", [True, False])
def test_aggregator_top_breaks_ties_by_ascending_key(sparse):
    """``b`` and then ``a`` hold one identical item, so their estimates
    tie, below ``heavy``: ``a`` ranks before ``b``, whatever the insertion
    order."""
    from repro.aggregate import DistinctCountAggregator

    aggregator = DistinctCountAggregator(p=8, sparse=sparse)
    aggregator.add("b", "x").add("a", "x")
    tied = aggregator.estimate("a")
    assert aggregator.estimate("b") == tied
    assert aggregator.top(1) == [(b"a", tied)]
    aggregator.add_batch(["heavy"] * 40, range(40))
    heavy = (b"heavy", aggregator.estimate("heavy"))
    assert aggregator.top(2) == [heavy, (b"a", tied)]
    assert aggregator.top(3) == [heavy, (b"a", tied), (b"b", tied)]


def test_spilled_groupby_top(tmp_path):
    from repro.store.spill import SpilledGroupBy

    rng = np.random.Generator(np.random.PCG64(17))
    groupby = SpilledGroupBy(tmp_path / "spill", p=8, partitions=4)
    groups = rng.integers(0, 30, size=5000)
    items = rng.integers(0, 1 << 62, size=5000)
    groupby.add_batch(groups, items)
    estimates = groupby.estimates()
    ranked = sorted(estimates.items(), key=lambda kv: (-kv[1], kv[0]))
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
