"""FastBulkBackend: bit-identity, selection API, and zero-copy guarantees.

The cache-blocked kernels must be indistinguishable from the reference
NumPy kernels in results — only in speed. These tests pin the identity
across register widths (including the t=0 extremes), the
backend-selection surface (env variable, programmatic, scoped), and the
no-copy contracts the hot path relies on
(``np.shares_memory`` on chunk views, in-place clobber of the bit smear).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backends import (
    FastBulkBackend,
    ReferenceBulkBackend,
    active_backend,
    available_backends,
    exaloglog_registers,
    pick_chunk,
    set_backend,
    use_backend,
)
from repro.backends.bitops import bit_length_u64
from repro.backends.bulk import (
    _chunks,
    reference_exaloglog_registers,
    reference_merge_registers,
    reference_registers_from_pairs,
    split_hashes,
)
from repro.backends.fast import _workspace, release_workspaces
from repro.core.exaloglog import ExaLogLog
from repro.core.params import ExaLogLogParams

#: Register-geometry extremes plus the named configurations: the widest
#: int64 register (t=0, d=57), the narrowest window (d=1), d=0 (no window
#: bits at all), the ML-optimal ELL(2, 20), and a large-m precision.
PARAM_SETS = [
    (0, 57, 6),
    (0, 1, 4),
    (0, 0, 4),
    (1, 9, 6),
    (2, 16, 8),
    (2, 20, 8),
    (2, 20, 14),
]


def params_of(t: int, d: int, p: int) -> ExaLogLogParams:
    return ExaLogLogParams(t, d, p)


def random_hashes(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


@pytest.fixture
def fast() -> FastBulkBackend:
    return FastBulkBackend()


# -- bit-identity --------------------------------------------------------------


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
@pytest.mark.parametrize("seed", [1, 2])
def test_fold_matches_reference(t, d, p, seed, fast):
    params = params_of(t, d, p)
    hashes = random_hashes(seed, 5000)
    expected = reference_exaloglog_registers(hashes, params)
    assert np.array_equal(fast.fold(hashes, params), expected)


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_pairs_match_reference(t, d, p, fast):
    params = params_of(t, d, p)
    index, k = split_hashes(random_hashes(3, 4000), params)
    expected = reference_registers_from_pairs(index, k, params)
    assert np.array_equal(fast.registers_from_pairs(index, k, params), expected)


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_merge_matches_reference(t, d, p, fast):
    params = params_of(t, d, p)
    r1 = reference_exaloglog_registers(random_hashes(5, 2000), params)
    r2 = reference_exaloglog_registers(random_hashes(6, 50), params)
    expected = reference_merge_registers(r1, r2, params.d)
    assert np.array_equal(fast.merge_registers(r1, r2, params.d), expected)


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_tiny_batches(count, fast):
    params = params_of(2, 20, 8)
    hashes = random_hashes(11, count)
    assert np.array_equal(
        fast.fold(hashes, params), reference_exaloglog_registers(hashes, params)
    )


def test_blocked_fold_crosses_chunk_boundary(fast):
    """A batch larger than one cache block folds and merges identically."""
    params = params_of(1, 9, 4)  # m = 16 -> pick_chunk floor of 2**16
    count = pick_chunk(params.m) + 1234
    hashes = random_hashes(13, count)
    assert np.array_equal(
        fast.fold(hashes, params), reference_exaloglog_registers(hashes, params)
    )


def test_duplicate_heavy_stream(fast):
    params = params_of(2, 20, 8)
    rng = np.random.Generator(np.random.PCG64(17))
    pool = rng.integers(0, 1 << 64, size=100, dtype=np.uint64)
    hashes = rng.choice(pool, size=5000)
    assert np.array_equal(
        fast.fold(hashes, params), reference_exaloglog_registers(hashes, params)
    )


# -- selection API -------------------------------------------------------------


def test_default_backend_is_reference():
    assert isinstance(active_backend(), ReferenceBulkBackend)


def test_available_backends_names():
    assert available_backends() == ["numpy", "fast"]


def test_set_backend_by_name_and_restore():
    previous = active_backend()
    try:
        chosen = set_backend("fast")
        assert isinstance(chosen, FastBulkBackend)
        assert active_backend() is chosen
    finally:
        set_backend(previous)
    assert active_backend() is previous


def test_use_backend_scopes_selection():
    previous = active_backend()
    with use_backend("fast") as chosen:
        assert active_backend() is chosen
        assert chosen.name == "fast"
    assert active_backend() is previous


def test_unknown_backend_name_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        set_backend("telepathy")


def test_env_variable_fallback_warns(monkeypatch):
    """A bad REPRO_BACKEND value warns and falls back instead of breaking."""
    from repro.backends import select

    monkeypatch.setenv(select.ENV_VAR, "warp-drive")
    with pytest.warns(RuntimeWarning, match="REPRO_BACKEND"):
        backend = select._startup_backend()
    assert isinstance(backend, ReferenceBulkBackend)


def test_env_variable_selects_fast(monkeypatch):
    from repro.backends import select

    monkeypatch.setenv(select.ENV_VAR, "fast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend = select._startup_backend()
    assert isinstance(backend, FastBulkBackend)


def test_dispatch_follows_active_backend():
    """The public entry points route through whichever backend is active."""
    params = params_of(2, 20, 8)
    hashes = random_hashes(23, 2000)
    baseline = exaloglog_registers(hashes, params)
    with use_backend("fast"):
        assert np.array_equal(exaloglog_registers(hashes, params), baseline)


def test_sketch_ingest_identical_under_fast_backend():
    hashes = random_hashes(29, 6000)
    reference_sketch = ExaLogLog(2, 20, 8).add_hashes(hashes)
    with use_backend("fast"):
        fast_sketch = ExaLogLog(2, 20, 8).add_hashes(hashes)
    assert fast_sketch.to_bytes() == reference_sketch.to_bytes()


# -- zero-copy contracts -------------------------------------------------------


def test_chunks_yield_views():
    """Chunking the fold input never copies the hash batch."""
    from repro.backends.bulk import BULK_CHUNK

    hashes = random_hashes(31, BULK_CHUNK + 100)
    for chunk in _chunks(hashes):
        assert np.shares_memory(chunk, hashes)


def test_bit_length_clobber_skips_the_copy():
    """``clobber=True`` smears in place: no defensive copy on the hot path."""
    values = random_hashes(37, 1000)
    owned = values.copy()
    expected = bit_length_u64(values)  # non-clobbering reference
    assert np.array_equal(owned, values)  # default path left input intact
    result = bit_length_u64(owned, clobber=True)
    assert np.array_equal(result, expected)
    assert not np.array_equal(owned, values)  # smear ran in the caller's buffer


def test_fold_workspace_reused_across_calls(fast):
    params = params_of(2, 16, 8)
    release_workspaces()
    fast.fold(random_hashes(41, 3000), params)
    first = _workspace(1)
    fast.fold(random_hashes(42, 3000), params)
    assert _workspace(1) is first
    release_workspaces()


def test_batch_workspace_reused_across_calls():
    """``register_coefficients`` reuses its thread-local scratch buffers."""
    from repro.estimation.batch import (
        _WORKSPACE_LOCAL,
        register_coefficients,
        release_batch_workspaces,
    )

    params = params_of(2, 16, 8)
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
