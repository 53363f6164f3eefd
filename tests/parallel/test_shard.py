"""Property tests for ``shard_of`` — the routing function a cluster trusts.

Horizontal sharding (``repro.cluster``) stakes bit-identity on three
properties of ``shard_of(key, N) = murmur3_64(key) % N``:

* **stability** — the same key routes identically across processes,
  sessions, and machines (no PYTHONHASHSEED, no dict-order dependence),
  or a cluster reopened tomorrow would look for groups on the wrong
  shard;
* **uniformity** — partitions stay balanced (a chi-square bound over
  1e5 keys), or one hot shard erases the point of sharding;
* **exactly-one-owner** — every key has one owner before *and after* a
  fan-out change, which is what makes scatter-gather concatenation and
  rebalance-by-difference exact.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.hashing import to_bytes
from repro.parallel.shard import shard_of, shards_of

#: Pinned routing values: these are forever. A change here is a cluster
#: corruption bug (every existing cluster directory routes by them), not
#: a test to update.
PINNED = {
    (b"", 2): 0,
    (b"", 1024): 0,
    (b"alpha", 4): 1,
    (b"alpha", 16): 5,
    (b"alpha", 1024): 661,
    (b"country:DE", 16): 13,
    (b"country:DE", 1024): 349,
    (b"g0", 16): 12,
    (b"g0", 1024): 28,
    (b"\x00\xff", 1024): 64,
}


def test_pinned_values_are_stable():
    for (key, shards), expected in PINNED.items():
        assert shard_of(key, shards) == expected, (key, shards)


def test_cross_process_stability():
    """A fresh interpreter (fresh hash randomisation) routes identically."""
    keys = [b"alpha", b"country:DE", b"g0", b"", b"\x00\xff"]
    script = (
        "import sys\n"
        "from repro.parallel.shard import shard_of\n"
        "for line in sys.stdin.read().splitlines():\n"
        "    key, shards = line.rsplit(':', 1)\n"
        "    print(shard_of(key.encode('latin-1'), int(shards)))\n"
    )
    payload = "\n".join(
        f"{key.decode('latin-1')}:{shards}" for key in keys for shards in (4, 16)
    )
    source_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    environment = {
        **os.environ,
        "PYTHONPATH": source_root
        + os.pathsep
        + os.environ.get("PYTHONPATH", ""),
        "PYTHONHASHSEED": "random",
    }
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=payload,
        capture_output=True,
        text=True,
        check=True,
        env=environment,
    )
    remote = [int(line) for line in result.stdout.split()]
    local = [shard_of(key, shards) for key in keys for shards in (4, 16)]
    assert remote == local


def test_determinism_is_input_only():
    """Repeated calls, interleaved orders, copied buffers: same shard."""
    keys = [f"key-{i}".encode() for i in range(200)]
    first = [shard_of(key, 16) for key in keys]
    second = [shard_of(bytes(bytearray(key)), 16) for key in reversed(keys)]
    assert first == list(reversed(second))


@pytest.mark.parametrize("shards", [4, 16, 64])
def test_uniformity_chi_square(shards):
    """1e5 sequential keys spread uniformly: chi-square under the 99.9th
    percentile of the chi-square distribution with ``shards - 1`` degrees
    of freedom (so a sound hash fails with probability 1e-3, and a biased
    one — e.g. routing by key length or a weak low-bit hash — fails hard).
    """
    # chi2.ppf(0.999, df) for df = 3, 15, 63 (precomputed; scipy-free).
    critical = {4: 16.266, 16: 37.697, 64: 103.442}[shards]
    counts = np.zeros(shards, dtype=np.int64)
    total = 100_000
    for index in range(total):
        counts[shard_of(f"key-{index}".encode(), shards)] += 1
    expected = total / shards
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < critical, f"chi2={statistic:.2f} >= {critical} at N={shards}"


@pytest.mark.parametrize("shards", [1, 2, 5, 16])
def test_every_key_has_exactly_one_owner(shards):
    keys = [f"group-{i}".encode() for i in range(1000)]
    for key in keys:
        owners = [s for s in range(shards) if shard_of(key, shards) == s]
        assert len(owners) == 1
        assert 0 <= owners[0] < shards


def test_ownership_is_total_after_resharding():
    """Before and after a fan-out change, the shard sets partition the
    key space: every key owned exactly once under each fan-out, and the
    moved set is exactly the keys whose owner differs (what rebalance
    ships)."""
    keys = [f"group-{i}".encode() for i in range(5000)]
    before = {key: shard_of(key, 4) for key in keys}
    after = {key: shard_of(key, 6) for key in keys}
    assert set(before) == set(after) == set(keys)
    assert all(0 <= owner < 4 for owner in before.values())
    assert all(0 <= owner < 6 for owner in after.values())
    moved = [key for key in keys if before[key] != after[key]]
    stayed = [key for key in keys if before[key] == after[key]]
    assert len(moved) + len(stayed) == len(keys)
    # A fan-out change moves *some* keys (else rebalance is vacuous) but
    # far from all (consistent modulo routing keeps 1/lcm residues home).
    assert moved and stayed


#: The batch router's table: every key encoding a batch can hold, and
#: the lengths around the 16-byte Murmur3 block boundary.
ROUTED_KEYS = [
    *(to_bytes(value) for value in (0, 1, -1, 255, -(1 << 63), (1 << 63) - 1, 1 << 63, (1 << 64) - 1)),
    *(to_bytes(value) for value in (0.0, -0.0, 1.5, float("inf"), float("nan"))),
    b"country",  # 7 bytes
    "ärger".encode(),  # 7 bytes of UTF-8
    b"",
    b"k" * 15,
    b"k" * 16,
    b"k" * 40,
    *sorted({key for key, _ in PINNED}),
]


@pytest.mark.parametrize("shards", [1, 2, 3, 16, 64, 1024, (1 << 40) + 3])
def test_the_batch_router_equals_shard_of_on_a_table_of_keys(shards):
    expected = [shard_of(key, shards) for key in ROUTED_KEYS]
    assert shards_of(ROUTED_KEYS, shards).tolist() == expected
    # One key length per batch takes the unmasked path; mixed lengths
    # and keys of 16 bytes or more take the masked and scalar ones.
    for key in ROUTED_KEYS:
        assert shards_of([key] * 3, shards).tolist() == [shard_of(key, shards)] * 3
    assert shards_of([], shards).tolist() == []
