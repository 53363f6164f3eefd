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


# -- the estimate column: every write unsolves what it changed ---------------
#
# Each rule reads (so the column holds solved estimates), writes, reads
# again, and compares with a ``from_bytes`` copy, which holds the same
# state and no kept estimate.


def _assert_reads_are_fresh(source, aggregator) -> None:
    """``source``'s ``top``, ``estimates`` and point ``estimate`` reads
    equal those of a cold copy of ``aggregator``, the state it reads."""
    cold = DistinctCountAggregator.from_bytes(aggregator.to_bytes())
    assert source.top(3) == cold.top(3)
    assert source.estimates() == cold.estimates()
    for key in cold.groups():
        assert source.estimate(key) == cold.estimate(key)


def _solved(source) -> dict:
    source.top(3)
    return source.estimates()


def test_a_stacked_fold_unsolves_the_rows_it_folds():
    aggregator = DistinctCountAggregator(*DENSE)
    aggregator.fold_segments([(f"g{index}", _hashes(40 + index, 300)) for index in range(4)])
    before = _solved(aggregator)
    aggregator.fold_segments([("g1", _hashes(44, 300)), ("g3", _hashes(45, 300))])
    _assert_reads_are_fresh(aggregator, aggregator)
    assert aggregator.estimate("g1") != before[b"g1"]


def test_a_dense_add_hash_unsolves_its_row_at_the_next_read():
    aggregator = DistinctCountAggregator(*SPARSE)
    aggregator.fold_segments([("a", _hashes(46, 900)), ("b", _hashes(47, 5))])
    before = _solved(aggregator)
    for value in _hashes(48, 200).tolist():
        aggregator.add_hash("a", value)
    _assert_reads_are_fresh(aggregator, aggregator)
    assert aggregator.estimate("a") != before[b"a"]


def test_a_buffered_token_merge_that_densifies_unsolves_its_rows():
    """``a``'s merged tokens and ``b``'s ``add_hash`` tokens wait in the
    insertion buffer; the read merges them, and ``a`` densifies."""
    aggregator = DistinctCountAggregator(*SPARSE)
    aggregator.fold_segments([("a", _hashes(49, _break_even() - 10)), ("b", _hashes(50, 20))])
    _solved(aggregator)
    aggregator.merge_sketch("a", SparseExaLogLog(2, 20, 8).add_hashes(_hashes(51, 30)))
    for value in _hashes(52, 5).tolist():
        aggregator.add_hash("b", value)
    _assert_reads_are_fresh(aggregator, aggregator)
    assert not aggregator.group_sketch("a").is_sparse
    assert aggregator.group_sketch("b").is_sparse


def test_a_dropped_row_reused_by_a_new_group_starts_unsolved():
    """``c`` takes dense ``a``'s freed row through a merge that writes no
    token, so only the drop can have unsolved it."""
    aggregator = DistinctCountAggregator(*SPARSE)
    aggregator.fold("a", _hashes(53, 900)).fold("b", _hashes(54, 5))
    row = aggregator._rows[b"a"]
    _solved(aggregator)
    aggregator.drop_group("a")
    aggregator.merge_sketch("c", SparseExaLogLog(2, 20, 8))
    assert aggregator._rows[b"c"] == row
    _assert_reads_are_fresh(aggregator, aggregator)
    assert aggregator.estimate("c") == 0.0


def test_merge_inplace_unsolves_the_groups_it_merges_into():
    """Shared token and dense groups merge; ``theirs`` is copied with the
    estimate ``right`` solved for it."""
    left = DistinctCountAggregator(*SPARSE).fold_segments(
        [("tokens", _hashes(55, 9)), ("dense", _hashes(56, 900)), ("mine", _hashes(57, 4))]
    )
    right = DistinctCountAggregator(*SPARSE).fold_segments(
        [("tokens", _hashes(58, 9)), ("dense", _hashes(59, 900)), ("theirs", _hashes(60, 900))]
    )
    _solved(left)
    _solved(right)
    left.merge_inplace(right)
    _assert_reads_are_fresh(left, left)


def test_a_reader_refresh_unsolves_the_groups_its_tail_writes(tmp_path):
    from repro.store import SketchStore, SnapshotReader

    store = SketchStore.open(tmp_path / "store", p=8)
    try:
        for group, seed in (("a", 61), ("b", 62), ("c", 63)):
            store.append_hashes(group, _hashes(seed, 400))
        with SnapshotReader.open(store.directory) as reader:
            _solved(reader)
            store.append_hashes("b", _hashes(64, 400))
            assert reader.refresh().records_applied == 1
            _assert_reads_are_fresh(reader, reader.aggregator)
            assert reader.estimates() == store.estimates()
    finally:
        store.close()


def test_a_follower_apply_unsolves_the_groups_it_writes(tmp_path):
    from repro.store import FollowerStore, SketchStore, WalShipper

    leader = SketchStore.open(tmp_path / "leader", p=8)
    follower = FollowerStore.open(tmp_path / "follower")
    try:
        shipper = WalShipper(tmp_path / "leader")
        for group, seed in (("a", 65), ("b", 66), ("c", 67)):
            leader.append_hashes(group, _hashes(seed, 400))
        shipper.sync(follower)
        _solved(follower)
        leader.append_hashes("b", _hashes(68, 400))
        shipper.sync(follower)
        _assert_reads_are_fresh(follower, follower.aggregator)
        assert follower.estimates() == leader.estimates()
    finally:
        follower.close()
        leader.close()
