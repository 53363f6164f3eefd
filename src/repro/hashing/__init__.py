"""64-bit hashing substrate.

ExaLogLog and every baseline sketch consume uniformly distributed 64-bit
hash values (paper Sec. 4). This subpackage implements the hash functions
from scratch and provides :func:`hash64`, the convenience entry point the
sketches use when fed raw Python objects.

:mod:`repro.hashing.batch` is the NumPy-vectorised front end (bit-
identical to :func:`hash64` over whole arrays); it is imported lazily by
the bulk-ingest paths so that importing this package stays dependency-
light.
"""

from __future__ import annotations

from typing import Any

from repro.hashing.bits import MASK64, nlz64
from repro.hashing.murmur3 import murmur3_64, murmur3_x64_128, murmur3_x86_32
from repro.hashing.splitmix64 import SplitMix64, splitmix64_at, splitmix64_mix
from repro.hashing.xxhash64 import xxhash64

__all__ = [
    "MASK64",
    "SplitMix64",
    "hash64",
    "murmur3_64",
    "murmur3_x64_128",
    "murmur3_x86_32",
    "nlz64",
    "splitmix64_at",
    "splitmix64_mix",
    "to_bytes",
    "xxhash64",
]

#: Registry of named 64-bit hash functions over ``bytes``.
HASHERS = {
    "murmur3": murmur3_64,
    "xxhash64": xxhash64,
}


def to_bytes(obj: Any) -> bytes:
    """Canonical byte encoding of the objects sketches accept.

    Strings are UTF-8 encoded; integers use a little-endian two's-
    complement layout of at least 8 bytes, widened as needed so arbitrary
    Python ints (e.g. raw 64-bit hash values used as keys) are accepted
    (so ``1`` and ``"1"`` hash differently, as users expect from e.g.
    database distinct-count semantics); bytes pass through. NumPy integer
    and bool scalars encode like the Python value of ``.item()``, the
    value ``ndarray.tolist()`` yields (``np.float64`` and ``np.str_``
    already subclass ``float`` and ``str``).
    """
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, bytearray) or isinstance(obj, memoryview):
        return bytes(obj)
    if isinstance(obj, str):
        return obj.encode("utf-8")
    if isinstance(obj, bool):
        return b"\x01" if obj else b"\x00"
    if isinstance(obj, int):
        length = max(8, (obj.bit_length() + 8) // 8)
        return obj.to_bytes(length, "little", signed=True)
    if isinstance(obj, float):
        import struct

        return struct.pack("<d", obj)
    import numpy as np

    if isinstance(obj, (np.integer, np.bool_)):
        return to_bytes(obj.item())
    raise TypeError(f"cannot hash object of type {type(obj).__name__}; pass bytes or str")


def hash64(obj: Any, seed: int = 0, algorithm: str = "murmur3") -> int:
    """Hash an arbitrary supported object to an unsigned 64-bit value."""
    try:
        hasher = HASHERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown hash algorithm {algorithm!r}; known: {sorted(HASHERS)}")
    return hasher(to_bytes(obj), seed)
