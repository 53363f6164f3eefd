"""A zero-filled WAL tail is a torn tail: one rule per test.

A power cut that persists a commit's new file size but not its last
pages leaves the file ending in zero bytes (Pillai et al., "All File
Systems Are Not Created Equal", OSDI 2014). A record that fails its
checksum is a torn tail when the file ends in zero bytes that begin
inside that record, or at its start: the writer's open cuts it away and
syncs the cut, and read-only opens, readers and the shipper stop before
it and write nothing. Zero bytes with a record after them are still
corruption.
"""

import os

import numpy as np
import pytest

from repro.storage.serialization import SerializationError
from repro.store import FollowerStore, SketchStore, SnapshotReader, WalShipper, wal_path


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _committed(directory):
    """Three commits with ``fsync=True``: returns the WAL end after each one."""
    ends = []
    with SketchStore.open(directory, p=8, fsync=True) as store:
        store.append_hashes("DE", _hashes(1, 20))
        ends.append(store.wal_bytes)
        with store.batch():
            store.append_hashes("AT", _hashes(2, 7))
            store.append_hashes("DE", _hashes(3, 9))
        ends.append(store.wal_bytes)
        store.append_hashes("CH", _hashes(4, 300))
        ends.append(store.wal_bytes)
        state = store.aggregator.to_bytes()
    return ends, state


def _state_after(directory, commits):
    """The state a store holds after the first ``commits`` commits of :func:`_committed`."""
    replay = directory.parent / f"replay-{commits}"
    with SketchStore.open(replay, p=8) as store:
        writes = [
            [("DE", _hashes(1, 20))],
            [("AT", _hashes(2, 7)), ("DE", _hashes(3, 9))],
            [("CH", _hashes(4, 300))],
        ]
        for commit in writes[:commits]:
            with store.batch():
                for group, hashes in commit:
                    store.append_hashes(group, hashes)
        return store.aggregator.to_bytes()


def test_zero_bytes_after_the_last_record_reopen_every_commit_at_the_next_lsn(tmp_path):
    directory = tmp_path / "s"
    ends, state = _committed(directory)
    with open(wal_path(directory, 0), "ab") as handle:
        handle.write(bytes(64))
    with SketchStore.open(directory) as store:
        assert (store.durable_lsn, store.aggregator.to_bytes()) == (3, state)
        assert store.wal_bytes == ends[-1]  # the zero tail is cut away
        store.append_hashes("post", _hashes(5, 4))
        assert store.durable_lsn == 4
    with SketchStore.open(directory) as reopened:
        assert reopened.durable_lsn == 4


@pytest.mark.parametrize("zeroed", [1, 4, 40, 2000, "whole"])
def test_a_final_segments_record_with_zeroed_trailing_bytes_is_dropped_whole(
    tmp_path, zeroed
):
    directory = tmp_path / "s"
    ends, _ = _committed(directory)
    path = wal_path(directory, 0)
    data = bytearray(path.read_bytes())
    start = ends[-1] - (ends[-1] - ends[-2] if zeroed == "whole" else zeroed)
    data[start:] = bytes(len(data) - start)
    path.write_bytes(bytes(data))
    with SketchStore.open(directory) as store:
        assert store.durable_lsn == 2
        assert store.aggregator.to_bytes() == _state_after(directory, 2)
        assert store.wal_bytes == ends[-2]


def test_read_only_opens_readers_and_the_shipper_stop_before_a_zero_tail_and_write_nothing(
    tmp_path,
):
    directory = tmp_path / "s"
    ends, _ = _committed(directory)
    path = wal_path(directory, 0)
    with open(path, "ab") as handle:
        handle.write(bytes(64))
    size = path.stat().st_size
    expected = _state_after(directory, 3)
    with SketchStore.open(directory, read_only=True) as store:
        assert (store.durable_lsn, store.aggregator.to_bytes()) == (3, expected)
    with SnapshotReader.open(directory) as reader:
        assert (reader.durable_lsn, reader.aggregator.to_bytes()) == (3, expected)
        assert reader.refresh().records_applied == 0
    with FollowerStore.open(tmp_path / "replica") as follower:
        result = WalShipper(directory).sync(follower)
        assert (result.records_shipped, follower.aggregator.to_bytes()) == (3, expected)
    assert path.stat().st_size == size
    assert os.path.getsize(wal_path(tmp_path / "replica", 0)) == ends[-1]


def test_zero_bytes_between_two_complete_records_still_raise_naming_the_file_and_offset(
    tmp_path,
):
    directory = tmp_path / "s"
    ends, _ = _committed(directory)
    path = wal_path(directory, 0)
    data = path.read_bytes()
    path.write_bytes(data[: ends[1]] + bytes(64) + data[ends[1] :])
    for opener in (
        SketchStore.open,
        lambda directory: SketchStore.open(directory, read_only=True),
        SnapshotReader.open,
    ):
        with pytest.raises(SerializationError) as caught:
            opener(directory)
        assert str(caught.value).startswith(f"{path}: record at offset {ends[1]}: ")
    assert path.stat().st_size == len(data) + 64
