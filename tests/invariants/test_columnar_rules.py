"""The columnar aggregator against per-group scalar sketches: one rule per test.

The aggregator keeps every token-mode group in one sorted token array and
every dense group in one row of a register block; the reference is a
:class:`~tests.invariants.harness.ScalarOracle`, a plain dict of
per-group sketches fed by Algorithm 2. :func:`check_interleaved` compares
every group's bytes and every estimate after every step.
"""

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.core.sparse import SparseExaLogLog
from repro.storage.serialization import SerializationError
from tests.invariants.harness import (
    ScalarOracle,
    assert_identical,
    check_interleaved,
    interleaved_scenario,
    rounds,
)

SPARSE = (2, 20, 8, True, 0)
DENSE = (2, 20, 8, False, 0)


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64([seed, 26]))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _break_even():
    return SparseExaLogLog(2, 20, 8).break_even_tokens


@pytest.mark.parametrize("seed", rounds(8))
def test_interleaved_writes_match_the_oracle_after_every_step(seed):
    check_interleaved(*interleaved_scenario(seed))


def test_add_hash_tokens_wait_in_the_buffer_until_a_read():
    ops = [("add_hash", "a", _hashes(1, 30)), ("add_hash", "b", _hashes(2, 3))]
    aggregator = check_interleaved(SPARSE, ops)
    assert aggregator.group_sketch("a").token_count == 30


def test_add_hash_past_break_even_densifies_at_the_merge():
    ops = [("add_hash", "a", _hashes(3, _break_even() + 1))]
    aggregator = check_interleaved(SPARSE, ops)
    assert not aggregator.group_sketch("a").is_sparse


def test_several_groups_cross_break_even_inside_one_batch():
    over = _break_even() - 4
    batch = [
        ("a", _hashes(4, over)), ("b", _hashes(5, over)), ("a", _hashes(6, 9)),
        ("c", _hashes(7, 2)), ("b", _hashes(8, 9)), ("d", _hashes(9, 3 * over)),
    ]
    aggregator = check_interleaved(SPARSE, [("fold", batch)])
    assert [aggregator.group_sketch(key).is_sparse for key in (b"a", b"b", b"c", b"d")] == [
        False, False, True, False,
    ]


def test_an_empty_slice_only_creates_its_group():
    aggregator = check_interleaved(SPARSE, [("fold", [("a", _hashes(10, 0))])])
    assert list(aggregator.groups()) == [b"a"]


def test_a_dropped_group_re_added_starts_empty():
    """``a`` is dropped right after densifying: its row waits for one purge
    of the token array and is then reused once."""
    ops = [
        ("fold", [("a", _hashes(11, 500)), ("b", _hashes(12, 4))]),
        ("drop", "a"),
        ("drop", "b"),
        ("fold", [("b", _hashes(13, 2)), ("c", _hashes(14, 7))]),
        ("add_hash", "a", _hashes(15, 3)),
    ]
    aggregator = check_interleaved(SPARSE, ops)
    assert list(aggregator.groups()) == [b"b", b"c", b"a"]


def test_merges_of_either_mode_into_either_mode():
    ops = [
        ("fold", [("tokens", _hashes(16, 9)), ("dense", _hashes(17, 900))]),
        ("merge", "tokens", _hashes(18, 20), True),
        ("merge", "dense", _hashes(19, 20), True),
        ("merge", "tokens", _hashes(20, 900), False),
        ("merge", "fresh", _hashes(21, 900), True),
    ]
    check_interleaved(SPARSE, ops)
    check_interleaved(DENSE, ops)


def test_merge_inplace_copies_new_groups_and_merges_shared_ones():
    left, right = DistinctCountAggregator(*SPARSE), DistinctCountAggregator(*SPARSE)
    oracle = ScalarOracle(*SPARSE)
    for group, seed, size in (("a", 22, 9), ("b", 23, 900), ("c", 24, 100)):
        left.fold(group, _hashes(seed, size))
        oracle.add_hashes(group, _hashes(seed, size))
    for group, seed, size in (
        ("a", 25, 9), ("b", 26, 5), ("c", 27, 200), ("d", 28, 3), ("empty", 29, 0),
    ):
        right.fold(group, _hashes(seed, size))
        oracle.add_hashes(group, _hashes(seed, size))
    assert_identical(oracle, left.merge_inplace(right), "merge_inplace")


def test_a_windowed_block_stays_bounded_over_many_retirements():
    from repro.windowed import SlidingWindowDistinctCounter

    counter = SlidingWindowDistinctCounter(window=40, buckets=4, p=6)
    for step in range(10_000):
        counter.add_hashes(_hashes(step, 2), at=step * 10.0)
    assert counter.active_buckets <= 4
    assert len(counter.aggregator._block) <= 8


def test_a_token_run_ending_in_a_long_varint_splits_at_its_group():
    """Token runs decode as one concatenation; each group keeps its own.

    Group ``a``'s last delta takes five bytes, so its run's last bytes
    are continuation bytes right before ``b``'s run; ``empty`` has no
    run at all between them.
    """
    aggregator = DistinctCountAggregator(*SPARSE)
    oracle = ScalarOracle(*SPARSE)
    for group, hashes in (
        ("a", np.array([0, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)),
        ("empty", _hashes(29, 0)),
        ("b", _hashes(30, 7)),
    ):
        aggregator.fold(group, hashes)
        oracle.add_hashes(group, hashes)
    data = aggregator.to_bytes()
    assert data == oracle.to_bytes()
    restored = DistinctCountAggregator.from_bytes(data)
    assert_identical(oracle, restored, "from_bytes")
    assert restored.estimates() == oracle.estimates()


def test_a_token_count_that_disagrees_with_its_run_is_refused():
    aggregator = DistinctCountAggregator(*SPARSE).fold("a", _hashes(31, 5))
    data = bytearray(aggregator.to_bytes())
    blob = data.index(bytes((2, 20, 8, 26, 0))) + 5  # the token count
    data[blob] = 4
    with pytest.raises(SerializationError, match="token count"):
        DistinctCountAggregator.from_bytes(bytes(data))
