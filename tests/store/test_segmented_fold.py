"""The segmented fold: one rule per test.

``DistinctCountAggregator.fold_segments`` folds a whole batch of
``(group, hashes)`` segments at once, and every path that applies many
records (the store's commit, WAL replay, the reader's tail, the spill
merge) hands it runs. Each test below names one rule of that contract;
the randomized equivalence lives in ``tests/invariants`` (the
``build_segmented`` builder).
"""

import gc
import io
import math
import struct
import warnings

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator, segment
from repro.hashing import to_bytes
from repro.hashing.batch import hash_items
from repro.storage.serialization import (
    SerializationError,
    read_record_from,
    write_record,
)
from repro.store import (
    RECORD_HASHES,
    FollowerStore,
    SketchStore,
    SnapshotReader,
    SpilledGroupBy,
    WalShipper,
    wal_path,
)
from repro.store import sketchstore
from tests.invariants.harness import ScalarOracle


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _scalar(segments, config=(2, 20, 8, True, 0)):
    """Reference: every hash through the paper's scalar ``add_hash``."""
    oracle = ScalarOracle(*config)
    for group, hashes in segments:
        oracle.add_hashes(group, hashes)
    return oracle


def _count_folds(monkeypatch):
    """Count ``fold_segments`` calls (the runs a path hands the aggregator)."""
    calls = []
    original = DistinctCountAggregator.fold_segments

    def counting(self, segments):
        segments = list(segments)
        calls.append(len(segments))
        return original(self, segments)

    monkeypatch.setattr(DistinctCountAggregator, "fold_segments", counting)
    return calls


# -- the aggregator's bulk write --------------------------------------------------


def test_a_key_repeated_inside_one_run_folds_every_slice():
    segments = [
        ("a", _hashes(1, 5)),
        ("b", _hashes(2, 3)),
        ("a", _hashes(3, 4)),
        ("a", _hashes(1, 5)),  # the same hashes again: idempotent
    ]
    folded = DistinctCountAggregator(2, 20, 8).fold_segments(segments)
    assert folded.to_bytes() == _scalar(segments).to_bytes()
    assert list(folded.groups()) == [b"a", b"b"]


def test_a_group_crossing_break_even_mid_run_densifies_beside_one_that_does_not():
    aggregator = DistinctCountAggregator(2, 20, 8)
    break_even = aggregator._new_sketch().break_even_tokens
    segments = [
        ("big", _hashes(4, break_even - 20)),
        ("small", _hashes(5, 3)),
        ("big", _hashes(6, 40)),  # crosses break-even in this slice
        ("small", _hashes(7, 4)),
    ]
    aggregator.fold_segments(segments)
    assert aggregator.to_bytes() == _scalar(segments).to_bytes()
    assert not aggregator.sketches()[b"big"].is_sparse
    assert aggregator.sketches()[b"small"].is_sparse
    assert aggregator.sketches()[b"small"].token_count == 7


def test_a_slice_that_can_densify_its_group_skips_the_batch_tokenise(monkeypatch):
    from repro import backends

    aggregator = DistinctCountAggregator(2, 20, 8)
    break_even = aggregator._new_sketch().break_even_tokens
    segments = [("big", _hashes(14, 50_000)), ("small", _hashes(15, 7))]
    tokenised = []
    original = backends.tokenize_hashes

    def recording(hashes, v):
        tokenised.append(len(hashes))
        return original(hashes, v)

    monkeypatch.setattr(backends, "tokenize_hashes", recording)
    aggregator.fold_segments(segments)
    # The big slice goes straight to add_hashes, which tokenises only a
    # prefix to decide densification; the batch tokenise sees the rest.
    assert tokenised == [4 * (break_even + 1), 7]
    assert aggregator.to_bytes() == _scalar(segments).to_bytes()


def test_a_batch_tokenise_split_by_a_small_cap_equals_one_call(monkeypatch):
    from repro import aggregate, backends

    segments = [(f"g{index % 7}", _hashes(40 + index, 9)) for index in range(21)]
    calls = []
    original = backends.tokenize_hashes

    def counting(hashes, v):
        calls.append(len(hashes))
        return original(hashes, v)

    monkeypatch.setattr(backends, "tokenize_hashes", counting)
    whole = DistinctCountAggregator(2, 20, 8).fold_segments(segments)
    assert calls == [21 * 9]
    monkeypatch.setattr(aggregate, "TOKENISE_ROWS", 4 * 9)
    calls.clear()
    split = DistinctCountAggregator(2, 20, 8).fold_segments(segments)
    assert calls == [4 * 9] * 5 + [9]
    assert split.to_bytes() == whole.to_bytes() == _scalar(segments).to_bytes()


def test_a_key_repeated_inside_one_run_folds_into_one_row(kernel_rows):
    segments = [
        ("a", _hashes(50, 30)),
        ("b", _hashes(51, 20)),
        ("a", _hashes(52, 40)),
        ("a", _hashes(50, 30)),  # the same hashes again: idempotent
    ]
    config = (2, 20, 8, False, 0)
    folded = DistinctCountAggregator(*config).fold_segments(segments)
    assert kernel_rows == [2]
    assert folded.to_bytes() == _scalar(segments, config).to_bytes()


def test_dense_rows_fold_beside_a_token_mode_group_and_one_crossing_break_even(
    kernel_rows,
):
    aggregator = DistinctCountAggregator(2, 20, 8)
    break_even = aggregator._new_sketch().break_even_tokens
    warm = [("d1", _hashes(60, 2000)), ("d2", _hashes(61, 2000))]
    aggregator.fold_segments(warm)
    kernel_rows.clear()
    run = [
        ("d1", _hashes(62, 100)),
        ("tokens", _hashes(63, 5)),
        ("crossing", _hashes(64, break_even - 10)),
        ("d2", _hashes(65, 70)),
        ("crossing", _hashes(66, 40)),
        ("d1", _hashes(67, 30)),
    ]
    aggregator.fold_segments(run)
    # One stacked fold of the dense pair, then the crossing group's
    # densification, a one-sketch fold inside its own add_hashes.
    assert kernel_rows == [2, None]
    assert aggregator.to_bytes() == _scalar(warm + run).to_bytes()
    sketches = aggregator.sketches()
    assert sketches[b"tokens"].is_sparse
    assert not sketches[b"crossing"].is_sparse


def test_a_stacked_fold_split_by_a_small_block_cap_equals_one_unsplit_fold(
    kernel_rows, monkeypatch
):
    from repro import aggregate

    config = (2, 20, 8, False, 0)
    segments = [(f"g{index % 7}", _hashes(70 + index, 25)) for index in range(21)]
    whole = DistinctCountAggregator(*config).fold_segments(segments)
    assert kernel_rows == [7]
    monkeypatch.setattr(aggregate, "STACK_REGISTERS", 2 * 256)
    kernel_rows.clear()
    split = DistinctCountAggregator(*config).fold_segments(segments)
    # Each block holds two rows: the run's seven groups fold in blocks of
    # 2, 2, 2 and 1, each group's three slices in its one row.
    assert kernel_rows == [2, 2, 2, 1]
    assert split.to_bytes() == whole.to_bytes() == _scalar(segments, config).to_bytes()


def test_adopted_register_arrays_are_read_only_and_share_no_memory():
    segments = [(f"g{index}", _hashes(90 + index, 300)) for index in range(5)]
    aggregator = DistinctCountAggregator(2, 20, 8, sparse=False)
    aggregator.fold_segments(segments).fold_segments(segments[::-1])
    arrays = [sketch.registers_array() for sketch in aggregator.sketches().values()]
    assert not any(array.flags.writeable for array in arrays)
    assert all(array.flags.owndata for array in arrays)
    for index, array in enumerate(arrays):
        for other in arrays[index + 1 :]:
            assert not np.shares_memory(array, other)


def test_d_zero_folds_stacked(kernel_rows):
    config = (2, 0, 8, False, 0)
    segments = [
        ("a", _hashes(100, 400)),
        ("b", _hashes(101, 300)),
        ("a", _hashes(102, 9)),
    ]
    folded = DistinctCountAggregator(*config).fold_segments(segments)
    folded.fold_segments(segments[1:])
    assert kernel_rows == [2, 2]
    assert folded.to_bytes() == _scalar(segments + segments[1:], config).to_bytes()


def test_64_bit_registers_keep_the_scalar_route(kernel_rows):
    config = (2, 56, 8, False, 0)
    segments = [
        ("a", _hashes(110, 200)),
        ("b", _hashes(111, 100)),
        ("a", _hashes(112, 50)),
    ]
    folded = DistinctCountAggregator(*config).fold_segments(segments)
    assert kernel_rows == []
    assert folded.to_bytes() == _scalar(segments, config).to_bytes()


def test_fold_is_the_one_segment_case():
    hashes = _hashes(8, 300)
    one = DistinctCountAggregator(2, 20, 8).fold("g", hashes)
    many = DistinctCountAggregator(2, 20, 8).fold_segments([("g", hashes)])
    assert one.to_bytes() == many.to_bytes() == _scalar([("g", hashes)]).to_bytes()


# -- runs of WAL records ------------------------------------------------------------


def test_drop_then_hashes_of_the_same_key_in_one_commit_keep_their_order(tmp_path):
    first, second = _hashes(9, 6), _hashes(10, 4)
    store = SketchStore.open(tmp_path / "s", p=8)
    with store.batch():
        store.append_hashes("g", first)
        store.drop_group("g")
        store.append_hashes("g", second)
        store.append_hashes("h", first)
    expected = _scalar([("g", second), ("h", first)]).to_bytes()
    assert store.aggregator.to_bytes() == expected
    store.close()
    reopened = SketchStore.open(tmp_path / "s")
    assert reopened.aggregator.to_bytes() == expected
    reopened.close()


def test_a_run_split_by_a_small_cap_equals_one_unsplit_run(tmp_path, monkeypatch):
    # Twelve commits, twelve one-segment records: a run gathers records,
    # so the cap splits between them.
    store = SketchStore.open(tmp_path / "s", p=8)
    for index in range(12):
        store.append_hashes(f"g{index % 5}", _hashes(20 + index, 30))
    state = store.aggregator.to_bytes()
    store.close()
    calls = _count_folds(monkeypatch)
    unsplit = SketchStore.open(tmp_path / "s", read_only=True)
    assert calls == [12]
    monkeypatch.setattr(sketchstore, "RUN_BYTES", 2 * 30 * 8)
    calls.clear()
    split = SketchStore.open(tmp_path / "s", read_only=True)
    assert calls == [2] * 6
    assert split.aggregator.to_bytes() == unsplit.aggregator.to_bytes() == state


def test_a_spill_merge_split_by_a_small_cap_equals_one_unsplit_run(tmp_path, monkeypatch):
    # Twelve batches, twelve one-segment records: the merge gathers whole
    # records into runs as WAL replay does, so the cap splits between them.
    spill = SpilledGroupBy(tmp_path / "spill", p=8, partitions=1)
    segments = [(f"g{index % 5}".encode(), _hashes(20 + index, 30)) for index in range(12)]
    for key, hashes in segments:
        spill.write_segments([(key, hashes)])
    calls = _count_folds(monkeypatch)
    unsplit = spill.to_aggregator()
    assert calls == [12]
    monkeypatch.setattr(sketchstore, "RUN_BYTES", 2 * 30 * 8)
    calls.clear()
    split = spill.to_aggregator()
    assert calls == [2] * 6
    assert split.to_bytes() == unsplit.to_bytes() == _scalar(segments).to_bytes()
    spill.close()


def _written_store(directory, records=6):
    store = SketchStore.open(directory, p=8)
    for index in range(records):
        store.append_hashes(f"g{index % 3}", _hashes(40 + index, 5))
    state = store.aggregator.to_bytes()
    store.close()
    return state


def _record_ends(data):
    handle = io.BytesIO(data)
    handle.seek(sketchstore._FILE_HEADER_BYTES)
    ends = []
    while read_record_from(handle) is not None:
        ends.append(handle.tell())
    return ends


def test_the_reader_stops_at_a_torn_record_mid_run_and_the_next_refresh_completes_it(tmp_path):
    state = _written_store(tmp_path / "s")
    path = wal_path(tmp_path / "s", 0)
    data = path.read_bytes()
    ends = _record_ends(data)
    path.write_bytes(data[: ends[3] + 5])  # records 1-4, then half of record 5
    reader = SnapshotReader.open(tmp_path / "s")
    assert reader.durable_lsn == 4
    prefix = SketchStore.open(tmp_path / "s", read_only=True)
    assert reader.aggregator.to_bytes() == prefix.aggregator.to_bytes()
    path.write_bytes(data)  # the writer's append lands
    result = reader.refresh()
    assert (result.records_applied, result.durable_lsn) == (2, 6)
    assert reader.aggregator.to_bytes() == state
    reader.close()


def _store_with_bad_record(directory):
    """A store whose WAL holds LSNs 1-5, record 3 with a 7-byte hash payload.

    Returns the WAL path and the offset of the bad record.
    """
    SketchStore.open(directory, p=8).close()
    path = wal_path(directory, 0)
    buffer = bytearray()
    offset = None
    for lsn in range(1, 6):
        payload = _hashes(lsn, 4).astype("<u8").tobytes()
        if lsn == 3:
            offset = sketchstore._FILE_HEADER_BYTES + len(buffer)
            payload = payload[:7]
        write_record(buffer, RECORD_HASHES, b"g", payload, lsn)
    with open(path, "ab") as handle:
        handle.write(buffer)
    return path, offset


def _spill_with_bad_record(directory):
    """A one-partition spill holding two records, then a 7-byte hash record.

    Returns the spill file and the offset of the bad record.
    """
    with SpilledGroupBy(directory, p=8, partitions=1) as spill:
        for index in range(2):
            spill.write_segments([(b"g", _hashes(index, 4))])
    [path] = directory.glob("part-*.spill")
    offset = path.stat().st_size
    buffer = bytearray()
    write_record(buffer, RECORD_HASHES, b"g", _hashes(3, 4).tobytes()[:7])
    write_record(buffer, RECORD_HASHES, b"g", _hashes(4, 4).tobytes())
    with open(path, "ab") as handle:
        handle.write(buffer)
    return path, offset


def test_a_bad_payload_length_mid_run_names_that_records_offset(tmp_path):
    path, offset = _store_with_bad_record(tmp_path / "s")

    def ship(directory):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(directory).sync(follower)

    openers = {
        "replay": SketchStore.open,
        "reader": SnapshotReader.open,
        "shipper": ship,
    }
    for name, opener in openers.items():
        with pytest.raises(SerializationError) as caught:
            opener(tmp_path / "s")
        assert str(caught.value) == (
            f"{path}: record at offset {offset}: "
            "hash record payload of 7 bytes is not a multiple of 8"
        ), name
    # The spill merge checks its records with the WAL's own check.
    path, offset = _spill_with_bad_record(tmp_path / "spill")
    with pytest.raises(SerializationError) as caught:
        SpilledGroupBy.attach(tmp_path / "spill").top(1)
    assert str(caught.value) == (
        f"{path}: record at offset {offset}: "
        "hash record payload of 7 bytes is not a multiple of 8"
    )


def test_an_open_that_raises_mid_tail_closes_the_wal_it_opened(tmp_path):
    _store_with_bad_record(tmp_path / "s")
    openers = {
        "reader": SnapshotReader.open,
        "read-only store": lambda directory: SketchStore.open(directory, read_only=True),
    }
    for name, opener in openers.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(SerializationError, match="not a multiple of 8"):
                opener(tmp_path / "s")
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == [], name


def test_a_refresh_that_raises_leaves_the_view_at_its_horizon(tmp_path):
    directory = tmp_path / "s"
    SketchStore.open(directory, p=8).close()
    reader = SnapshotReader.open(directory)
    _, offset = _store_with_bad_record(directory)
    with pytest.raises(SerializationError, match=f"record at offset {offset}:"):
        reader.refresh()
    assert reader.durable_lsn == 2
    expected = _scalar([("g", _hashes(1, 4)), ("g", _hashes(2, 4))])
    assert reader.aggregator.to_bytes() == expected.to_bytes()
    reader.close()


# -- factorising a batch's group keys ----------------------------------------------


def _per_row_segments(groups, items, seed=0):
    """The per-row factorise loop: ``to_bytes`` of every ``tolist()`` value."""
    hashes = hash_items(items, seed)
    rows = groups.tolist() if isinstance(groups, np.ndarray) else list(groups)
    by_key = {}
    for position, group in enumerate(rows):
        by_key.setdefault(to_bytes(group), []).append(position)
    return [(key, hashes[positions]) for key, positions in by_key.items()]


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def test_float_keys_factorise_on_bit_patterns():
    groups = np.array([0.0, -0.0, _nan(1), _nan(2), 0.0, _nan(2)])
    aggregator = DistinctCountAggregator(2, 20, 8)
    aggregator.add_batch(groups, np.arange(6))
    assert list(aggregator.groups()) == [
        struct.pack("<d", value) for value in groups[:4].tolist()
    ]
    assert all(math.isnan(value) for value in groups[2:4].tolist())
    assert [
        (key, hashes.tolist()) for key, hashes in segment(groups, np.arange(6), 0)
    ] == [
        (key, hashes.tolist()) for key, hashes in _per_row_segments(groups, np.arange(6))
    ]


@pytest.mark.parametrize(
    "groups",
    [
        np.array([5, -3, 5, 0, -3, 7], dtype=np.int64),
        np.array([2**63, 1, 2**64 - 1, 2**63, 1, 0], dtype=np.uint64),
        np.array([True, False, True, True, False, False]),
        np.array(["DE", "AT", "DE", "", "AT", "CH"]),
        np.array([1, 1.0, True, "1", b"1", 1], dtype=object),
        # Spans at the narrow sort's edges, with values that would
        # collide if it truncated to a type too narrow for the span.
        np.array([2**16 - 1, 0, 256, 255, 2**16 - 1, 0, 256], dtype=np.int64),
        np.array([-3, 2**16 - 3, 7, -3, 2**16 - 3], dtype=np.int64),
        np.array([-(2**63), 2**63 - 1, 0, -(2**63), 2**63 - 1], dtype=np.int64),
        np.array([300 - 2**63, -(2**63), 44 - 2**63, 300 - 2**63], dtype=np.int64),
        np.array([2**64 - 1, 2**64 - 257, 2**64 - 1, 2**64 - 2], dtype=np.uint64),
        np.array([127, -128, 0, -128, 127, 5], dtype=np.int8),
        np.array([65535, 0, 300, 44, 300, 65535, 0, 44], dtype=np.uint16),
    ],
    ids=[
        "int64",
        "uint64-high",
        "bool",
        "str",
        "object",
        "span-2**16-1",
        "span-2**16",
        "int64-min-and-max",
        "int64-min-narrow",
        "uint64-max-narrow",
        "int8",
        "uint16",
    ],
)
def test_vectorised_factorise_equals_the_per_row_loop(groups):
    items = np.arange(len(groups), dtype=np.int64) * 7919
    assert [(key, hashes.tolist()) for key, hashes in segment(groups, items, 3)] == [
        (key, hashes.tolist()) for key, hashes in _per_row_segments(groups, items, 3)
    ]
