"""SketchStore's one write path: staged writes, one commit per batch() scope.

A commit writes each run of consecutive hash writes as one
``RECORD_SEGMENTS`` record, so a scope of hash writes is one record.

Also pins the failure rules of that path: a failed commit closes the WAL
until a reopen, a sketch that cannot merge is refused before it is
logged, and the torn-tail cut made by recovery is synced.
"""

import errno
import io
import os
import re

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.core.exaloglog import ExaLogLog
from repro.core.sparse import SparseExaLogLog
from repro.storage.serialization import read_record_from
from repro.store import FollowerStore, SketchStore, WalShipper, wal_path
from tests.invariants.harness import ScalarOracle


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _reference(segments, config=(2, 20, 8, True, 0)):
    """Every segment through its group's own sketch (the scalar oracle)."""
    oracle = ScalarOracle(*config)
    for group, hashes in segments:
        oracle.add_hashes(group, hashes)
    return oracle


SEGMENTS = [
    ("DE", _hashes(1, 12)),
    ("AT", _hashes(2, 3)),
    ("DE", _hashes(3, 5)),
    ("CH", _hashes(4, 1)),
]


def _fail_next_fsync(monkeypatch):
    real = os.fsync
    failed = []

    def failing_once(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "simulated fsync failure")
        real(fd)

    monkeypatch.setattr(os, "fsync", failing_once)


class TestBatchScope:
    def test_one_write_one_fsync_and_reads_from_before_the_scope(
        self, tmp_path, fsynced_inodes
    ):
        with SketchStore.open(tmp_path / "s", fsync=True) as store:
            wal_inode = os.stat(wal_path(tmp_path / "s", 0)).st_ino
            fsynced_inodes.clear()
            with store.batch():
                for group, hashes in SEGMENTS:
                    store.append_hashes(group, hashes)
                assert len(store) == 0 and store.durable_lsn == 0
                assert store.wal_bytes == 4  # just the file header
            assert fsynced_inodes == [wal_inode]
            # The scope's four hash writes are one segments record.
            assert store.durable_lsn == store.wal_records == 1
            assert store.aggregator.to_bytes() == _reference(SEGMENTS).to_bytes()
            # New groups keep their staging order (top-k tie-breaks use it).
            assert list(store.groups()) == [b"DE", b"AT", b"CH"]
        with SketchStore.open(tmp_path / "s") as reopened:
            assert reopened.aggregator.to_bytes() == _reference(SEGMENTS).to_bytes()

    def test_exception_inside_a_scope_writes_nothing(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            store.append_hashes("pre", _hashes(5, 10))
            before = (store.wal_bytes, store.durable_lsn, store.aggregator.to_bytes())
            with pytest.raises(RuntimeError, match="abandon"):
                with store.batch():
                    for group, hashes in SEGMENTS:
                        store.append_hashes(group, hashes)
                    raise RuntimeError("abandon the batch")
            assert (store.wal_bytes, store.durable_lsn, store.aggregator.to_bytes()) == before
            # Still usable: the next commit takes the next LSN.
            store.append_hashes("post", _hashes(6, 10))
            assert store.durable_lsn == 2
        expected = _reference([("pre", _hashes(5, 10)), ("post", _hashes(6, 10))])
        with SketchStore.open(tmp_path / "s") as reopened:
            assert reopened.aggregator.to_bytes() == expected.to_bytes()

    def test_inner_scope_failure_discards_only_its_own_records(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            with store.batch():
                store.append_hashes(*SEGMENTS[0])
                with pytest.raises(KeyError):
                    with store.batch():
                        store.append_hashes(*SEGMENTS[1])
                        raise KeyError("inner")
                store.append_hashes(*SEGMENTS[2])
            # The two surviving hash writes are one segments record.
            assert store.durable_lsn == 1
            expected = _reference([SEGMENTS[0], SEGMENTS[2]])
            assert store.aggregator.to_bytes() == expected.to_bytes()
        with SketchStore.open(tmp_path / "s") as reopened:
            assert reopened.aggregator.to_bytes() == expected.to_bytes()

    def test_every_record_kind_commits_in_one_scope(self, tmp_path):
        bucket = ExaLogLog(2, 20, 8).add_hashes(_hashes(7, 300))
        with SketchStore.open(tmp_path / "s") as store:
            with store.batch():
                store.append_hashes("gone", _hashes(8, 10))
                store.merge_sketch("bucket", bucket)
                store.drop_group("gone")
                store.append_cutover(b"fence")
            assert store.durable_lsn == 4
            assert list(store.groups()) == [b"bucket"]
            blob = store.aggregator.to_bytes()
        with SketchStore.open(tmp_path / "s") as reopened:
            assert reopened.aggregator.to_bytes() == blob

    def test_compact_inside_a_scope_raises(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            with store.batch():
                store.append_hashes(*SEGMENTS[0])
                with pytest.raises(ValueError, match="batch"):
                    store.compact()
            assert store.compact() == 1
            assert store.aggregator.to_bytes() == _reference(SEGMENTS[:1]).to_bytes()

    def test_empty_scope_writes_nothing(self, tmp_path, fsynced_inodes):
        with SketchStore.open(tmp_path / "s", fsync=True) as store:
            fsynced_inodes.clear()
            with store.batch():
                store.append_hashes("g", np.array([], dtype=np.uint64))
            assert fsynced_inodes == []
            assert store.wal_bytes == 4 and store.durable_lsn == 0


def test_crash_inside_a_commit_leaves_all_or_none_of_its_hash_writes(tmp_path):
    """Cut the WAL at every byte of one commit: recovery keeps all or none of it."""
    directory = tmp_path / "s"
    prefix = [("pre", _hashes(9, 6))]
    with SketchStore.open(directory) as store:
        store.append_hashes(*prefix[0])
        start = store.wal_bytes
        with store.batch():
            for group, hashes in SEGMENTS:
                store.append_hashes(group, hashes)
    data = wal_path(directory, 0).read_bytes()
    handle = io.BytesIO(data)
    handle.seek(start)
    assert read_record_from(handle) is not None
    assert handle.tell() == len(data)  # the commit is one record
    expected = [_reference(prefix).to_bytes(), _reference(prefix + SEGMENTS).to_bytes()]
    for cut in range(start, len(data) + 1):
        wal_path(directory, 0).write_bytes(data[:cut])
        complete = int(cut == len(data))
        with SketchStore.open(directory) as recovered:
            assert recovered.durable_lsn == 1 + complete, f"cut at {cut}"
            assert recovered.aggregator.to_bytes() == expected[complete], f"cut at {cut}"


class TestFailedCommit:
    def test_failed_fsync_stops_writes_until_reopen(self, tmp_path, monkeypatch):
        directory = tmp_path / "s"
        store = SketchStore.open(directory, fsync=True)
        store.append_hashes("DE", _hashes(1, 10))
        _fail_next_fsync(monkeypatch)
        with pytest.raises(OSError, match="simulated"):
            store.append_hashes("AT", _hashes(2, 10))
        with pytest.raises(ValueError, match=re.escape(str(directory)) + ".*reopen"):
            store.append_hashes("CH", _hashes(3, 10))
        with pytest.raises(ValueError, match="reopen"):
            store.compact()
        store.close()
        with SketchStore.open(directory) as reopened:
            # The failed commit's bytes reached the file before its fsync
            # failed, so recovery replays them; its LSN is never reused.
            assert reopened.durable_lsn == 2
            reopened.append_hashes("CH", _hashes(3, 10))
        with SketchStore.open(directory) as again:
            expected = _reference(
                [("DE", _hashes(1, 10)), ("AT", _hashes(2, 10)), ("CH", _hashes(3, 10))]
            )
            assert again.durable_lsn == 3
            assert again.aggregator.to_bytes() == expected.to_bytes()

    @pytest.mark.parametrize(
        "sketch",
        [ExaLogLog(2, 20, 10), SparseExaLogLog(1, 9, 8), SparseExaLogLog(2, 20, 8, v=20)],
        ids=["p=10", "t=1,d=9", "v=20"],
    )
    def test_mismatched_sketch_is_refused_before_logging(self, tmp_path, sketch):
        directory = tmp_path / "s"
        sketch.add_hashes(_hashes(2, 50))
        with SketchStore.open(directory, p=8) as store:
            store.append_hashes("DE", _hashes(1, 10))
            before = store.wal_bytes
            with pytest.raises(ValueError, match="parameters differ"):
                store.merge_sketch("DE", sketch)
            with pytest.raises(TypeError):
                store.merge_sketch("DE", object())
            assert store.wal_bytes == before
            store.append_hashes("AT", _hashes(3, 10))  # still usable
        with SketchStore.open(directory) as reopened:
            assert reopened.durable_lsn == 2

    def test_failed_follower_append_stops_until_reopen(self, tmp_path, monkeypatch):
        leader = SketchStore.open(tmp_path / "leader")
        leader.append_hashes("DE", _hashes(1, 40))
        replica = tmp_path / "replica"
        follower = FollowerStore.open(replica, fsync=True)
        WalShipper(leader.directory).sync(follower)
        leader.append_hashes("AT", _hashes(2, 40))
        leader.append_hashes("CH", _hashes(3, 40))
        _fail_next_fsync(monkeypatch)
        with pytest.raises(OSError, match="simulated"):
            WalShipper(leader.directory).sync(follower)
        with pytest.raises(ValueError, match=re.escape(str(replica)) + ".*reopen"):
            WalShipper(leader.directory).sync(follower)
        follower.close()
        with FollowerStore.open(replica) as recovered:
            WalShipper(leader.directory).sync(recovered)
            assert recovered.applied_lsn == leader.durable_lsn == 3
            assert recovered.aggregator.to_bytes() == leader.aggregator.to_bytes()
        leader.close()


def test_torn_tail_truncation_is_synced(tmp_path, fsynced_inodes):
    directory = tmp_path / "s"
    with SketchStore.open(directory) as store:
        store.append_hashes("DE", _hashes(1, 30))
        store.append_hashes("AT", _hashes(2, 30))
    wal = wal_path(directory, 0)
    wal.write_bytes(wal.read_bytes()[:-10])
    fsynced_inodes.clear()
    recovered = SketchStore.open(directory)
    try:
        assert recovered.wal_records == 1
        assert os.stat(wal).st_ino in fsynced_inodes
    finally:
        recovered.close()
