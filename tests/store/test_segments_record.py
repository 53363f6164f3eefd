"""The ``RECORD_SEGMENTS`` WAL record: one rule per test.

A commit writes each run of consecutive hash writes as one segments
record (one frame, one LSN, one CRC), and every reader of the log —
replay, the reader's tail, the shipper and the follower — decodes it
into the segments of its ``fold_segments`` run. ``RECORD_HASHES``, the
one-record-per-group kind older code wrote, is still read everywhere.

``fixtures/before_segments`` was written by the code before this record
existed: a store directory (a compacted snapshot, then a WAL holding
hash, sketch, drop and cutover records) and a 2-partition spill
directory, each with the state that code held (``*.state``).
"""

import io
import pathlib
import shutil

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.hashing import to_bytes
from repro.storage.serialization import (
    SerializationError,
    encode_segments,
    read_lsn_record_from,
    segments_layout,
    write_lsn_record,
    write_uvarint,
)
from repro.store import (
    RECORD_DROP,
    RECORD_HASHES,
    RECORD_SEGMENTS,
    FollowerStore,
    SketchStore,
    SnapshotReader,
    SpilledGroupBy,
    WalShipper,
    wal_path,
)
from repro.store.sketchstore import _FILE_HEADER_BYTES, check_wal_record
from tests.invariants.harness import ScalarOracle

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "before_segments"


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


SEGMENTS = [
    ("DE", _hashes(1, 12)),
    ("AT", _hashes(2, 3)),
    ("DE", _hashes(3, 5)),
    (7, _hashes(4, 400)),
    ("CH", _hashes(5, 1)),
]


def _reference(segments, config=(2, 20, 8, True, 0)):
    """Every segment through its sketch's own ``add_hashes``, one by one."""
    oracle = ScalarOracle(*config)
    for group, hashes in segments:
        oracle.add_hashes(group, hashes, scalar=False)
    return oracle


def _records(path):
    """``(offset, lsn, kind, key, payload)`` of every record in a WAL file."""
    data = pathlib.Path(path).read_bytes()
    handle = io.BytesIO(data)
    handle.seek(_FILE_HEADER_BYTES)
    records = []
    while True:
        start = handle.tell()
        record = read_lsn_record_from(handle)
        if record is None:
            return records
        records.append((start, *record))


def _write_batch(directory, segments=SEGMENTS):
    with SketchStore.open(directory, p=8) as store:
        with store.batch():
            for group, hashes in segments:
                store.append_hashes(group, hashes)
        return store.aggregator.to_bytes()


def _append_raw(directory, records):
    """Append hand-framed ``(lsn, kind, key, payload)`` records to the WAL."""
    buffer = bytearray()
    for record in records:
        write_lsn_record(buffer, *record)
    with open(wal_path(directory, 0), "ab") as handle:
        handle.write(buffer)


def _ship(directory, replica):
    with FollowerStore.open(replica) as follower:
        WalShipper(directory).sync(follower)
        return follower.aggregator.to_bytes(), follower.applied_lsn


# -- the write path ------------------------------------------------------------------


def test_a_batch_of_hash_writes_is_one_segments_record(tmp_path):
    state = _write_batch(tmp_path / "s")
    [(_, lsn, kind, key, payload)] = _records(wal_path(tmp_path / "s", 0))
    assert (lsn, kind, key) == (1, RECORD_SEGMENTS, b"")
    assert payload == encode_segments(
        [(to_bytes(group), hashes) for group, hashes in SEGMENTS]
    )
    assert state == _reference(SEGMENTS).to_bytes()


def test_an_append_outside_a_scope_is_a_one_segment_record(tmp_path):
    with SketchStore.open(tmp_path / "s", p=8) as store:
        store.append_hashes("DE", SEGMENTS[0][1])
    [(_, _, kind, key, payload)] = _records(wal_path(tmp_path / "s", 0))
    assert (kind, key) == (RECORD_SEGMENTS, b"")
    assert payload == encode_segments([(b"DE", SEGMENTS[0][1])])


def test_a_commit_of_hash_drop_hash_on_one_key_keeps_its_order(tmp_path):
    first, second = _hashes(6, 8), _hashes(7, 5)
    with SketchStore.open(tmp_path / "s", p=8) as store:
        with store.batch():
            store.append_hashes("g", first)
            store.drop_group("g")
            store.append_hashes("g", second)
        assert store.aggregator.to_bytes() == _reference([("g", second)]).to_bytes()
    kinds = [record[2] for record in _records(wal_path(tmp_path / "s", 0))]
    assert kinds == [RECORD_SEGMENTS, RECORD_DROP, RECORD_SEGMENTS]
    with SketchStore.open(tmp_path / "s") as reopened:
        assert reopened.aggregator.to_bytes() == _reference([("g", second)]).to_bytes()


def test_an_empty_batch_writes_nothing_and_fsyncs_nothing(tmp_path, fsynced_inodes):
    from repro.cluster import ShardedStore

    with ShardedStore.open(tmp_path / "c", shards=2, p=8, fsync=True) as cluster:
        sizes = [shard.wal_bytes for shard in cluster.shard_stores]
        fsynced_inodes.clear()
        cluster.add_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with cluster.batch():
            cluster.append_hashes("g", np.array([], dtype=np.uint64))
        assert fsynced_inodes == []
        assert [shard.wal_bytes for shard in cluster.shard_stores] == sizes
        assert [shard.durable_lsn for shard in cluster.shard_stores] == [0, 0]


# -- the read paths ------------------------------------------------------------------


def test_a_segments_record_replays_as_its_per_group_records_would(tmp_path):
    state = _write_batch(tmp_path / "new")
    SketchStore.open(tmp_path / "old", p=8).close()
    _append_raw(
        tmp_path / "old",
        [
            (lsn, RECORD_HASHES, to_bytes(group), hashes.tobytes())
            for lsn, (group, hashes) in enumerate(SEGMENTS, 1)
        ],
    )
    with SketchStore.open(tmp_path / "old") as old, SketchStore.open(tmp_path / "new") as new:
        assert new.aggregator.to_bytes() == old.aggregator.to_bytes() == state
        assert (old.durable_lsn, new.durable_lsn) == (len(SEGMENTS), 1)


def test_a_wal_mixing_hashes_and_segments_records_replays(tmp_path):
    directory = tmp_path / "s"
    SketchStore.open(directory, p=8).close()
    _append_raw(directory, [(1, RECORD_HASHES, b"DE", SEGMENTS[0][1].tobytes())])
    with SketchStore.open(directory) as store:
        with store.batch():
            for group, hashes in SEGMENTS[1:4]:
                store.append_hashes(group, hashes)
    _append_raw(directory, [(3, RECORD_HASHES, b"CH", SEGMENTS[4][1].tobytes())])
    expected = _reference(SEGMENTS).to_bytes()
    assert [record[2] for record in _records(wal_path(directory, 0))] == [
        RECORD_HASHES,
        RECORD_SEGMENTS,
        RECORD_HASHES,
    ]
    with SketchStore.open(directory) as store:
        assert (store.durable_lsn, store.aggregator.to_bytes()) == (3, expected)
    with SnapshotReader.open(directory) as reader:
        assert reader.aggregator.to_bytes() == expected
    assert _ship(directory, tmp_path / "replica") == (expected, 3)


def test_a_segments_record_cut_at_every_byte_is_dropped_whole(tmp_path):
    directory = tmp_path / "s"
    with SketchStore.open(directory, p=8) as store:
        store.append_hashes("pre", _hashes(8, 6))
        start = store.wal_bytes
        before = store.aggregator.to_bytes()
    _write_batch(directory, SEGMENTS[:3])
    path = wal_path(directory, 0)
    data = path.read_bytes()
    for cut in range(start, len(data)):
        path.write_bytes(data[:cut])
        with SketchStore.open(directory) as store:
            assert store.durable_lsn == 1, f"cut at {cut}"
            assert store.aggregator.to_bytes() == before, f"cut at {cut}"
            store.append_hashes("post", _hashes(9, 3))
            assert store.durable_lsn == 2, f"cut at {cut}"
        with SketchStore.open(directory) as reopened:
            assert reopened.durable_lsn == 2, f"cut at {cut}"


def test_a_reader_stops_before_a_half_written_segments_record_until_the_next_refresh(
    tmp_path,
):
    directory = tmp_path / "s"
    with SketchStore.open(directory, p=8) as store:
        store.append_hashes("pre", _hashes(8, 6))
        start = store.wal_bytes
        before = store.aggregator.to_bytes()
    state = _write_batch(directory)
    path = wal_path(directory, 0)
    data = path.read_bytes()
    path.write_bytes(data[: (start + len(data)) // 2])
    with SnapshotReader.open(directory) as reader:
        assert (reader.durable_lsn, reader.aggregator.to_bytes()) == (1, before)
        path.write_bytes(data)  # the rest of the writer's append lands
        result = reader.refresh()
        assert (result.records_applied, result.durable_lsn) == (1, 2)
        assert reader.aggregator.to_bytes() == state


def test_a_followers_wal_equals_the_leaders_bytes(tmp_path):
    leader = tmp_path / "leader"
    with SketchStore.open(leader, p=8) as store:
        with store.batch():
            for group, hashes in SEGMENTS[:3]:
                store.append_hashes(group, hashes)
            store.drop_group("AT")
            for group, hashes in SEGMENTS[3:]:
                store.append_hashes(group, hashes)
        store.append_hashes("solo", _hashes(10, 4))
        state = store.aggregator.to_bytes()
    assert _ship(leader, tmp_path / "replica") == (state, 4)
    assert wal_path(tmp_path / "replica", 0).read_bytes() == wal_path(leader, 0).read_bytes()


# -- refusing a bad record -------------------------------------------------------------


def _payload_with_counts(counts, keys=b"ab", hashes=2):
    """A segments payload whose header declares ``counts`` over fixed bodies."""
    buffer = bytearray()
    write_uvarint(buffer, len(counts))
    for key_length, hash_count in counts:
        write_uvarint(buffer, key_length)
        write_uvarint(buffer, hash_count)
    return bytes(buffer) + keys + _hashes(11, hashes).tobytes()


def test_a_segments_header_is_parsed_once_per_record_read_back(tmp_path, monkeypatch):
    """Replay, a reader's tail and a follower's apply check each segments
    record as they read it, and hand the layout that check parsed to the
    decode instead of parsing the header again."""
    from repro.storage import serialization
    from repro.store import sketchstore

    directory = tmp_path / "s"
    with SketchStore.open(directory) as store:
        reader = SnapshotReader.open(directory)
        for segments in (SEGMENTS[:2], SEGMENTS[2:]):
            with store.batch():
                for group, hashes in segments:
                    store.append_hashes(group, hashes)
    parsed = []
    real = serialization.segments_layout

    def counting(payload):
        parsed.append(len(payload))
        return real(payload)

    monkeypatch.setattr(serialization, "segments_layout", counting)
    monkeypatch.setattr(sketchstore, "segments_layout", counting)
    with SketchStore.open(directory) as reopened:
        assert reopened.aggregator.to_bytes() == _reference(SEGMENTS).to_bytes()
    assert len(parsed) == 2
    parsed.clear()
    reader.refresh()
    assert len(parsed) == 2
    reader.close()
    parsed.clear()
    with FollowerStore.open(tmp_path / "replica") as follower:
        WalShipper(directory).sync(follower)
        assert follower.aggregator.to_bytes() == _reference(SEGMENTS).to_bytes()
    assert len(parsed) == 2  # the follower's check; its decode reuses it


@pytest.mark.parametrize(
    "payload, reason",
    [
        (_payload_with_counts([(1, 1), (1, 2)]), "run past the"),
        (_payload_with_counts([(1, 1), (1, 0)]), "do not add up"),
        (_payload_with_counts([(3, 1), (0, 1)]), "key of segment 0 runs past the 2-byte keys block"),
        (_payload_with_counts([(1, 0), (1, 2)]), "segment 0 holds no hash"),
        (b"\x00", "holds no segment"),
        (b"\x02\x01", "truncated varint"),
    ],
    ids=["hashes-past-end", "bytes-unclaimed", "key-past-block", "empty-segment", "no-segment", "cut-header"],
)
def test_a_malformed_segments_payload_is_refused(payload, reason):
    with pytest.raises(SerializationError, match=reason):
        check_wal_record(RECORD_SEGMENTS, payload)
    assert segments_layout(_payload_with_counts([(1, 1), (1, 1)])) == (5, [1, 2], [1, 2])


def test_a_segments_record_whose_counts_disagree_with_its_length_raises_naming_the_file_and_offset(
    tmp_path,
):
    directory = tmp_path / "s"
    with SketchStore.open(directory, p=8) as store:
        store.append_hashes("pre", _hashes(8, 6))
        offset = store.wal_bytes
    bad = _payload_with_counts([(1, 1), (1, 2)], hashes=1)  # declares 3 hashes, holds 1
    _append_raw(directory, [(2, RECORD_SEGMENTS, b"", bad)])
    path = wal_path(directory, 0)
    openers = {
        "writer": SketchStore.open,
        "read-only": lambda directory: SketchStore.open(directory, read_only=True),
        "reader": SnapshotReader.open,
        "shipper": lambda directory: _ship(directory, tmp_path / "replica"),
    }
    for name, opener in openers.items():
        with pytest.raises(SerializationError) as caught:
            opener(directory)
        assert str(caught.value).startswith(f"{path}: record at offset {offset}: "), name
        assert "run past the" in str(caught.value), name
    # Records from before the bad one are intact, and no opener cut it.
    assert path.stat().st_size > offset


# -- files written by the code before RECORD_SEGMENTS ---------------------------------


def test_a_store_written_before_segments_records_reopens_bit_identically(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(FIXTURES / "store", directory)
    state = (FIXTURES / "store.state").read_bytes()
    lsn = int((FIXTURES / "store.lsn").read_text())
    kinds = {record[2] for record in _records(wal_path(directory, 1))}
    assert kinds == {0x01, 0x02, 0x03, 0x04}
    with SketchStore.open(directory, read_only=True) as store:
        assert (store.durable_lsn, store.aggregator.to_bytes()) == (lsn, state)
    with SnapshotReader.open(directory) as reader:
        assert (reader.durable_lsn, reader.aggregator.to_bytes()) == (lsn, state)
    assert _ship(directory, tmp_path / "replica") == (state, lsn)
    with SketchStore.open(directory) as store:
        assert (store.durable_lsn, store.aggregator.to_bytes()) == (lsn, state)
        # New writes append segments records behind the old kinds.
        expected = DistinctCountAggregator.from_bytes(state)
        for group, hashes in SEGMENTS:
            expected.fold(to_bytes(group), hashes)
        with store.batch():
            for group, hashes in SEGMENTS:
                store.append_hashes(group, hashes)
        assert store.aggregator.to_bytes() == expected.to_bytes()
    with SketchStore.open(directory) as reopened:
        assert reopened.durable_lsn == lsn + 1
        assert reopened.aggregator.to_bytes() == expected.to_bytes()


def test_a_spill_written_before_segments_records_merges_bit_identically(tmp_path):
    directory = tmp_path / "spill"
    shutil.copytree(FIXTURES / "spill", directory)
    state = (FIXTURES / "spill.state").read_bytes()
    attached = SpilledGroupBy.attach(directory)
    assert attached.partitions == 2
    assert attached.to_aggregator().to_bytes() == state
    # A writer appends segments records beside the old hash records.
    rng = np.random.Generator(np.random.PCG64(12))
    groups = rng.integers(0, 40, size=300).astype(np.int64)
    items = rng.integers(0, 1 << 62, size=300, dtype=np.int64)
    with SpilledGroupBy(directory, p=8, partitions=2) as spill:
        spill.add_batch(groups, items)
        assert spill.records_spilled == 2
        expected = DistinctCountAggregator.from_bytes(state).add_batch(groups, items)
        assert spill.to_aggregator().to_bytes() == expected.to_bytes()
