"""Deterministic group-key routing: :func:`shard_of` and :func:`shards_of`.

A cluster routes each group to the shard ``shard_of(key, shards)``, and
a spill writer appends each group segment to the partition file of the
same number (:mod:`repro.store.spill`). Every group therefore lives in
exactly one shard or partition, which is what makes scatter-gather
concatenation and per-partition merges exact. A batch routes all its
keys with one :func:`shards_of` call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import hash64


def shard_of(key: bytes, shards: int) -> int:
    """Deterministic shard of a canonical group key (Murmur3-partitioned)."""
    return hash64(key) % shards


def shards_of(keys: "Sequence[bytes]", shards: int) -> np.ndarray:
    """``shard_of(key, shards)`` of every key, as an int64 array, in one pass.

    A key shorter than 16 bytes is a single Murmur3 x64-128 tail block:
    its zero-padded bytes, viewed as two little-endian uint64 lanes, mix
    exactly as :mod:`repro.hashing.batch`'s 8/9-byte kernel mixes an
    integer's encoding (a zero lane adds nothing). Those keys hash in
    one NumPy pass; longer keys go through :func:`shard_of`, the oracle,
    one at a time.
    """
    from repro.hashing.batch import _murmur3_64_tail

    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    short = lengths < 16
    result = np.empty(len(keys), dtype=np.int64)
    if short.all():
        short_keys, short_lengths = keys, lengths
    else:
        short_keys = [key for key, fits in zip(keys, short.tolist()) if fits]
        short_lengths = lengths[short]
        for position in np.flatnonzero(~short).tolist():
            result[position] = shard_of(keys[position], shards)
    flat = np.frombuffer(b"".join(short_keys), dtype=np.uint8)
    block = np.zeros((len(short_keys), 16), dtype=np.uint8)
    width = int(short_lengths.max(initial=0))
    if len(flat) == width * len(short_keys):  # one key length: no mask
        block[:, :width] = flat.reshape(len(short_keys), width)
    else:
        block[np.arange(16) < short_lengths[:, None]] = flat
    lanes = block.view("<u8")
    hashes = _murmur3_64_tail(
        lanes[:, 0], lanes[:, 1], short_lengths.astype(np.uint64), 0
    )
    result[short] = hashes % np.uint64(shards)
    return result
