"""Vectorised 64-bit bit primitives shared by every bulk backend.

All bit arithmetic stays in integer space (``np.bitwise_count`` on smeared
values implements ``bit_length``), so results are exact for all 64 bits —
the foundation of the exact-equivalence guarantee the bulk backends make.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def bit_length_u64(values: np.ndarray, clobber: bool = False) -> np.ndarray:
    """Element-wise ``int.bit_length`` for uint64 arrays (exact).

    ``clobber=True`` runs the bit smear in place when ``values`` is a
    writeable uint64 array the caller owns and no longer needs, skipping
    the defensive copy — the token, HyperLogLog and PCSA builders hand in
    a freshly built temporary once per chunk, so that copy was pure
    overhead.
    """
    if clobber and values.dtype == _U64 and values.flags.writeable:
        x = values
    else:
        x = values.astype(_U64, copy=True)
    for shift in (1, 2, 4, 8, 16, 32):
        x |= x >> _U64(shift)
    return np.bitwise_count(x).astype(np.int64)


def nlz64_array(values: np.ndarray, clobber: bool = False) -> np.ndarray:
    """Element-wise number of leading zeros of uint64 values.

    ``clobber`` forwards to :func:`bit_length_u64` (the input may be
    destroyed when the caller owns it).
    """
    return 64 - bit_length_u64(values, clobber=clobber)


def ntz64_array(values: np.ndarray) -> np.ndarray:
    """Element-wise number of trailing zeros (64 for zero values)."""
    x = values.astype(_U64, copy=False)
    isolated = x & (~x + _U64(1))
    result = np.bitwise_count(isolated - _U64(1)).astype(np.int64)
    result[x == 0] = 64
    return result


def as_hash_array(hashes) -> np.ndarray:
    """Coerce hash input (ndarray, sequence of ints) to a 1-D uint64 array.

    Python ints in ``[0, 2**64)`` are accepted; signed int64 arrays are
    reinterpreted as their two's-complement bit patterns so raw NumPy
    integer data round-trips losslessly.
    """
    if isinstance(hashes, np.ndarray):
        if hashes.dtype == np.uint64:
            if hashes.ndim == 1 and hashes.flags.c_contiguous:
                return hashes
            return np.ascontiguousarray(hashes).reshape(-1)
        if hashes.dtype == np.int64:
            return hashes.reshape(-1).view(np.uint64)
        return hashes.reshape(-1).astype(np.uint64)
    values = list(hashes)
    out = np.empty(len(values), dtype=np.uint64)
    for position, value in enumerate(values):
        out[position] = value & 0xFFFFFFFFFFFFFFFF
    return out
