"""The ExaLogLog bulk kernel against the scalar oracle, plus zero-copy guarantees.

The reference here is the paper's scalar algorithms: the ``add_hash``
loop (Algorithm 2) for the fold and the pair fold, and per-register
``merge_register`` (Algorithm 5) for the merge. The tests pin the
identity across register widths (including the t=0 extremes), batch
sizes from empty to past one chunk, hashes at float64 rounding edges
(the fold reads nlz off a float exponent), and duplicate-heavy streams,
plus the no-copy contracts the hot path relies on (``np.shares_memory``
on chunk views, in-place clobber of the bit smear).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.backends import (
    exaloglog_registers,
    exaloglog_registers_from_pairs,
    merge_exaloglog_registers,
    pick_chunk,
)
from repro.backends.bitops import bit_length_u64
from repro.backends.bulk import _chunks, split_hashes
from repro.core.exaloglog import ExaLogLog
from repro.core.params import ExaLogLogParams
from repro.core.register import enumerate_reachable
from repro.core.register import merge as merge_register

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


def edge_hashes() -> np.ndarray:
    """Hashes at float64 rounding edges: 2**L - 2**(L-54) rounds up to 2**L."""
    values = set()
    for length in range(1, 65):
        low = 1 << max(length - 54, 0)
        for value in (1 << (length - 1), (1 << length) - 1,
                      (1 << length) - low, (1 << length) - low - 1):
            values.add(value % (1 << 64))
    return np.array(sorted(values), dtype=np.uint64)


def scalar_registers(hashes: np.ndarray, params: ExaLogLogParams) -> list[int]:
    """The oracle: registers after the sequential ``add_hash`` loop."""
    sketch = ExaLogLog(params.t, params.d, params.p)
    for hash_value in hashes.tolist():
        sketch.add_hash(hash_value)
    return list(sketch.registers)


# -- bit-identity --------------------------------------------------------------


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
@pytest.mark.parametrize("seed", [1, 2])
def test_fold_matches_reference(t, d, p, seed):
    params = params_of(t, d, p)
    hashes = random_hashes(seed, 5000)
    folded = exaloglog_registers(hashes, params)
    assert folded.tolist() == scalar_registers(hashes, params)


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_single_hashes_at_rounding_edges(t, d, p):
    """nlz is read off a float64 exponent; no rounding edge may carry it."""
    params = params_of(t, d, p)
    for hash_value in edge_hashes():
        one = np.array([hash_value], dtype=np.uint64)
        assert exaloglog_registers(one, params).tolist() == scalar_registers(one, params)


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_pairs_match_reference(t, d, p):
    params = params_of(t, d, p)
    hashes = random_hashes(3, 4000)
    index, k = split_hashes(hashes, params)
    folded = exaloglog_registers_from_pairs(index, k, params)
    assert folded.tolist() == scalar_registers(hashes, params)


@pytest.mark.parametrize("t,d,p", PARAM_SETS)
def test_merge_matches_reference(t, d, p):
    params = params_of(t, d, p)
    r1 = scalar_registers(random_hashes(5, 2000), params)
    r2 = scalar_registers(random_hashes(6, 50), params)
    expected = [merge_register(a, b, d) for a, b in zip(r1, r2)]
    assert merge_exaloglog_registers(r1, np.array(r2), d).tolist() == expected
    assert merge_exaloglog_registers(r2, np.array(r1), d).tolist() == expected


@pytest.mark.parametrize("t,d,p", [(0, 0, 2), (0, 2, 2), (1, 2, 2), (2, 1, 2)])
def test_merge_every_reachable_pair(t, d, p):
    """Every pair of reachable register states merges like Algorithm 5."""
    params = params_of(t, d, p)
    states = list(enumerate_reachable(params))
    pairs = list(itertools.product(states, repeat=2))
    r1 = np.array([a for a, _ in pairs], dtype=np.int64)
    r2 = np.array([b for _, b in pairs], dtype=np.int64)
    expected = [merge_register(a, b, d) for a, b in pairs]
    assert merge_exaloglog_registers(r1, r2, d).tolist() == expected


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_tiny_batches(count):
    params = params_of(2, 20, 8)
    hashes = random_hashes(11, count)
    folded = exaloglog_registers(hashes, params)
    assert folded.tolist() == scalar_registers(hashes, params)
    index, k = split_hashes(hashes, params)
    paired = exaloglog_registers_from_pairs(index, k, params)
    assert paired.tolist() == scalar_registers(hashes, params)


def test_blocked_fold_crosses_chunk_boundary():
    """A batch longer than one chunk folds and merges identically."""
    params = params_of(1, 9, 4)  # m = 16 -> pick_chunk floor of 2**16
    count = pick_chunk(params.m) + 1234
    hashes = random_hashes(13, count)
    expected = scalar_registers(hashes, params)
    assert exaloglog_registers(hashes, params).tolist() == expected
    index, k = split_hashes(hashes, params)
    assert exaloglog_registers_from_pairs(index, k, params).tolist() == expected


def test_duplicate_heavy_stream():
    params = params_of(2, 20, 8)
    rng = np.random.Generator(np.random.PCG64(17))
    pool = rng.integers(0, 1 << 64, size=100, dtype=np.uint64)
    hashes = rng.choice(pool, size=5000)
    folded = exaloglog_registers(hashes, params)
    assert folded.tolist() == scalar_registers(hashes, params)


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
