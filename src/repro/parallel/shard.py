"""Deterministic group-key routing: :func:`shard_of`.

A cluster routes each group to the shard ``shard_of(key, shards)``, and
a spill writer appends each group segment to the partition file of the
same number (:mod:`repro.store.spill`). Every group therefore lives in
exactly one shard or partition, which is what makes scatter-gather
concatenation and per-partition merges exact.
"""

from __future__ import annotations

from repro.hashing import hash64


def shard_of(key: bytes, shards: int) -> int:
    """Deterministic shard of a canonical group key (Murmur3-partitioned)."""
    return hash64(key) % shards
