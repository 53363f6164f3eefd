"""Backend internals: vectorised primitives vs their scalar references."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BULK_CHUNK,
    exaloglog_registers,
    merge_exaloglog_registers,
    supports_int64_registers,
    token_hashes,
    tokenize_hashes,
)
from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.core.register import merge as merge_register
from repro.core.register import update as update_register
from repro.core.token import hash_to_token, token_to_hash
from repro.simulation.events import filter_state_changes, simulate_event_schedule
from repro.simulation.replay import bulk_final_registers, replay
from tests.conftest import SMALL_PARAMS


def random_hashes(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


@pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
def test_merge_matches_scalar_merge(params):
    d = params.d
    rng = np.random.Generator(np.random.PCG64(13))
    # Build two reachable register arrays from real insertions.
    a = exaloglog_registers(random_hashes(1, 2000), params)
    b = exaloglog_registers(random_hashes(2, 2000), params)
    merged = merge_exaloglog_registers(a.tolist(), b, d)
    expected = [merge_register(x, y, d) for x, y in zip(a.tolist(), b.tolist())]
    assert merged.tolist() == expected
    del rng


def test_token_hashes_matches_scalar():
    for v in (6, 10, 26, 58):
        hashes = random_hashes(v, 2000)
        tokens = tokenize_hashes(hashes, v)
        scalar_tokens = [hash_to_token(int(h), v) for h in hashes.tolist()]
        assert tokens.tolist() == scalar_tokens
        reconstructed = token_hashes(tokens, v)
        assert reconstructed.tolist() == [
            token_to_hash(w, v) for w in scalar_tokens
        ]


def test_token_hashes_nlz_zero_wraparound():
    # nlz == 0 exercises the 2**64 ≡ 0 uint64 wrap in the vectorised path.
    v = 26
    hashes = np.array([(1 << 64) - 1, 1 << 63, (1 << 63) | 5], dtype=np.uint64)
    tokens = tokenize_hashes(hashes, v)
    assert token_hashes(tokens, v).tolist() == [
        token_to_hash(hash_to_token(int(h), v), v) for h in hashes.tolist()
    ]


def test_chunked_fold_equals_single_fold():
    params = make_params(2, 20, 6)
    count = BULK_CHUNK + 4321  # force more than one chunk
    hashes = random_hashes(77, count)
    chunked = exaloglog_registers(hashes, params)
    sketch = ExaLogLog.from_params(params)
    for h in hashes[: 10_000].tolist():
        sketch.add_hash(h)
    # Spot-check the head sequentially, then full equality via two layouts.
    partial = exaloglog_registers(hashes[:10_000], params)
    assert partial.tolist() == list(sketch.registers)
    halves = merge_exaloglog_registers(
        exaloglog_registers(hashes[: count // 2], params).tolist(),
        exaloglog_registers(hashes[count // 2 :], params),
        params.d,
    )
    assert chunked.tolist() == halves.tolist()


@pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
def test_stacked_fold_rows_equal_one_sketch_folds(params):
    # Slices of uneven length, one of them empty, over more than one
    # chunk of a small block.
    sizes = [0, 7, 3 * params.m, 1, 70_000]
    hashes = random_hashes(91, sum(sizes))
    bounds = np.cumsum([0] + sizes)
    block = exaloglog_registers(hashes, params, bounds)
    assert block.shape == (len(sizes), params.m)
    for row, start, stop in zip(block, bounds[:-1], bounds[1:]):
        assert row.tolist() == exaloglog_registers(hashes[start:stop], params).tolist()


@pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
def test_stacked_merge_equals_row_by_row_merges(params):
    # Few hashes per row: the batch touches under a quarter of the
    # block's lanes, so the lane-by-lane shortcut runs.
    sizes = [2, 0, 0, 0, 0, 0, 0, 3]
    existing = np.stack(
        [exaloglog_registers(random_hashes(row, 5 * params.m), params) for row in range(8)]
    )
    bounds = np.cumsum([0] + sizes)
    batch = exaloglog_registers(random_hashes(92, sum(sizes)), params, bounds)
    assert 4 * np.count_nonzero(batch) < batch.size
    merged = merge_exaloglog_registers(existing, batch, params.d)
    for row in range(8):
        assert merged[row].tolist() == [
            merge_register(r1, r2, params.d)
            for r1, r2 in zip(existing[row].tolist(), batch[row].tolist())
        ]
    with pytest.raises(ValueError, match="shape"):
        merge_exaloglog_registers(existing[0], batch, params.d)


def test_supports_int64_registers_guard():
    assert supports_int64_registers(make_params(2, 20, 8))
    assert not supports_int64_registers(make_params(0, 60, 4))


def test_wide_register_fallback_is_exact():
    # d large enough that registers exceed 63 bits: scalar fallback path.
    params = make_params(0, 60, 4)
    hashes = random_hashes(3, 500)
    bulk = ExaLogLog.from_params(params).add_hashes(hashes)
    seq = ExaLogLog.from_params(params)
    for h in hashes.tolist():
        seq.add_hash(h)
    assert bulk.to_bytes() == seq.to_bytes()


@pytest.mark.parametrize("params", [make_params(2, 20, 6), make_params(1, 9, 4)], ids=str)
def test_bulk_final_registers_matches_replay(params):
    rng = np.random.Generator(np.random.PCG64(99))
    schedule = simulate_event_schedule(params, 1e8, rng, n_exact=1 << 14)
    filtered = filter_state_changes(schedule, params)
    result = replay(filtered, params, checkpoints=[1e4, 1e6, 1e8])
    assert bulk_final_registers(filtered, params) == result.registers
    # The unfiltered schedule folds to the same final state.
    assert bulk_final_registers(schedule, params) == result.registers


def test_bulk_final_registers_scalar_fallback():
    params = make_params(0, 60, 2)
    rng = np.random.Generator(np.random.PCG64(5))
    schedule = simulate_event_schedule(params, 1e5, rng, n_exact=1 << 10)
    registers = [0] * params.m
    for i, k in zip(schedule.registers.tolist(), schedule.values.tolist()):
        registers[i] = update_register(registers[i], k, params.d)
    assert bulk_final_registers(schedule, params) == registers
