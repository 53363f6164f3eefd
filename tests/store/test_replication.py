"""WalShipper / FollowerStore: idempotent LSN apply, catch-up identity."""

import errno
import os

import numpy as np
import pytest

from repro.core.exaloglog import ExaLogLog
from repro.storage.serialization import SerializationError
from repro.store import (
    RECORD_HASHES,
    FollowerStore,
    SketchStore,
    SnapshotReader,
    WalShipper,
    wal_path,
)


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _payload(seed, count):
    return _hashes(seed, count).astype("<u8").tobytes()


@pytest.fixture
def leader(tmp_path):
    store = SketchStore.open(tmp_path / "leader")
    store.append_hashes("DE", _hashes(1, 400))
    store.append_hashes("AT", _hashes(2, 60))
    store.append_hashes("DE", _hashes(3, 100))
    yield store
    store.close()


class TestFollowerStore:
    def test_uninitialised_follower_rejects_queries(self, tmp_path):
        follower = FollowerStore.open(tmp_path / "replica")
        assert not follower.initialized
        assert follower.applied_lsn == 0
        with pytest.raises(ValueError, match="uninitialised"):
            follower.estimates()
        with pytest.raises(ValueError, match="uninitialised"):
            follower.apply_record(1, RECORD_HASHES, b"DE", _payload(4, 5))

    def test_apply_is_idempotent_by_lsn(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(leader.directory).sync(follower)
            assert follower.applied_lsn == 3
            # Re-applying any shipped LSN is a no-op, not a double fold.
            before = follower.aggregator.to_bytes()
            assert follower.apply_record(2, RECORD_HASHES, b"DE", _payload(3, 7)) is False
            assert follower.aggregator.to_bytes() == before

    def test_gap_is_rejected(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(leader.directory).sync(follower)
            with pytest.raises(SerializationError, match="gap"):
                follower.apply_record(10, RECORD_HASHES, b"DE", _payload(5, 3))

    def test_snapshot_behind_horizon_is_rejected(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(leader.directory).sync(follower)
            stale = (leader.directory / "snapshot-00000000.bin").read_bytes()
            with pytest.raises(ValueError, match="behind"):
                follower.install_snapshot(stale)

    def test_follower_recovers_after_restart(self, leader, tmp_path):
        follower = FollowerStore.open(tmp_path / "replica")
        WalShipper(leader.directory).sync(follower)
        state = follower.aggregator.to_bytes()
        # A crash, not a clean close: records were flushed per apply, and
        # the WAL handle is released without close()'s fsync.
        follower._wal_handle.close()
        del follower
        reopened = FollowerStore.open(tmp_path / "replica")
        assert reopened.initialized
        assert reopened.applied_lsn == 3
        assert reopened.aggregator.to_bytes() == state
        reopened.close()

    def test_follower_wal_is_byte_identical_to_leader(self, leader, tmp_path):
        """Same records, deterministic framing: the logs match byte for byte."""
        follower = FollowerStore.open(tmp_path / "replica")
        WalShipper(leader.directory).sync(follower)
        follower.close()
        leader_wal = wal_path(leader.directory, 0).read_bytes()
        replica_wal = wal_path(tmp_path / "replica", 0).read_bytes()
        assert replica_wal == leader_wal


    def test_snapshot_install_syncs_directory_before_unlinking(
        self, leader, tmp_path, monkeypatch
    ):
        """A power cut during a reseed leaves the replica a whole snapshot.

        The new snapshot's rename and the new WAL's creation must reach
        the directory (an fsync on it) before the previous generation's
        files are unlinked.
        """
        import os
        import stat

        replica = tmp_path / "replica"
        follower = FollowerStore.open(replica)
        shipper = WalShipper(leader.directory)
        shipper.sync(follower)
        leader.append_hashes("FR", _hashes(9, 30))  # the follower falls behind
        leader.compact()
        new_files = {"snapshot-00000001.bin", "wal-00000001.log"}
        events = []
        real_fsync, real_unlink = os.fsync, os.unlink

        def recording_fsync(fd):
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode) and status.st_ino == replica.stat().st_ino:
                events.append(("sync", new_files <= set(os.listdir(replica))))
            real_fsync(fd)

        def recording_unlink(path, *args, **kwargs):
            events.append(("unlink", os.path.basename(path)))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "unlink", recording_unlink)
        assert shipper.sync(follower).snapshot_installed
        follower.close()
        kinds = [kind for kind, _ in events]
        assert "unlink" in kinds, events
        assert ("sync", True) in events[: kinds.index("unlink")], events


#: The seven direct writes a follower refuses: its only writer is the shipper.
DIRECT_WRITES = {
    "append": lambda store: store.append("DE", ["x"]),
    "append_hashes": lambda store: store.append_hashes("DE", _hashes(10, 5)),
    "merge_sketch": lambda store: store.merge_sketch("DE", ExaLogLog(2, 20, 8)),
    "drop_group": lambda store: store.drop_group("DE"),
    "append_cutover": lambda store: store.append_cutover(b"fence"),
    "batch": lambda store: store.batch().__enter__(),
    "compact": lambda store: store.compact(),
}


class TestFollowerContract:
    """A follower is a store whose records come only from its leader."""

    @pytest.mark.parametrize("seeded", [False, True], ids=["uninitialised", "seeded"])
    @pytest.mark.parametrize("write", sorted(DIRECT_WRITES))
    def test_direct_writes_raise(self, leader, tmp_path, write, seeded):
        with FollowerStore.open(tmp_path / "replica") as follower:
            if seeded:
                WalShipper(leader.directory).sync(follower)
            with pytest.raises(ValueError, match="only by its WalShipper"):
                DIRECT_WRITES[write](follower)
            assert follower.applied_lsn == (3 if seeded else 0)

    def test_a_reseed_leaves_only_the_new_generation(self, leader, tmp_path):
        replica = tmp_path / "replica"
        with FollowerStore.open(replica) as follower:
            shipper = WalShipper(leader.directory)
            shipper.sync(follower)
            leader.append_hashes("FR", _hashes(11, 30))  # the follower falls behind
            leader.compact()
            leader.compact()
            assert shipper.sync(follower).snapshot_installed
        assert sorted(os.listdir(replica)) == ["snapshot-00000002.bin", "wal-00000002.log"]

    def test_a_failed_append_names_the_follower_open(self, leader, tmp_path, monkeypatch):
        with FollowerStore.open(tmp_path / "replica", fsync=True) as follower:
            WalShipper(leader.directory).sync(follower)

            def failing_fsync(fd):
                raise OSError(errno.EIO, "simulated fsync failure")

            monkeypatch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="simulated"):
                follower.apply_record(4, RECORD_HASHES, b"DE", _payload(12, 3))
            monkeypatch.undo()
            with pytest.raises(ValueError, match=r"reopen it with FollowerStore\.open\(\)"):
                follower.apply_record(4, RECORD_HASHES, b"DE", _payload(12, 3))

    def test_a_seeded_followers_durable_lsn_is_its_applied_lsn(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(leader.directory).sync(follower)
            assert follower.durable_lsn == follower.applied_lsn == leader.durable_lsn
            assert follower.base_lsn == 0 and follower.wal_records == 3


class TestWalShipper:
    def test_missing_leader_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WalShipper(tmp_path / "absent")

    def test_uninitialised_leader_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        follower = FollowerStore.open(tmp_path / "replica")
        with pytest.raises(SerializationError, match="no snapshot"):
            WalShipper(tmp_path / "empty").sync(follower)

    def test_catch_up_guarantee(self, leader, tmp_path):
        """Applied to the horizon ⇒ bit-identical registers, every group."""
        with FollowerStore.open(tmp_path / "replica") as follower:
            result = WalShipper(leader.directory).sync(follower)
            assert result.follower_lsn == leader.durable_lsn
            for key, sketch in leader.aggregator._groups.items():
                assert follower.aggregator._groups[key].to_bytes() == sketch.to_bytes()
            assert follower.aggregator.to_bytes() == leader.aggregator.to_bytes()

    def test_incremental_sync_ships_only_new_records(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            shipper = WalShipper(leader.directory)
            assert shipper.sync(follower).records_shipped == 3
            assert shipper.sync(follower).records_shipped == 0
            leader.append_hashes("CH", _hashes(6, 30))
            result = shipper.sync(follower)
            assert result.records_shipped == 1 and not result.snapshot_installed
            assert follower.aggregator.to_bytes() == leader.aggregator.to_bytes()

    def test_compaction_forces_snapshot_install(self, leader, tmp_path):
        with FollowerStore.open(tmp_path / "replica") as follower:
            shipper = WalShipper(leader.directory)
            # Never synced before the leader compacts: the old log is gone.
            leader.compact()
            leader.append_hashes("DE", _hashes(7, 20))
            result = shipper.sync(follower)
            assert result.snapshot_installed
            assert result.records_shipped == 1
            assert follower.generation == 1
            assert follower.aggregator.to_bytes() == leader.aggregator.to_bytes()

    def test_caught_up_follower_survives_leader_compaction(self, leader, tmp_path):
        """A follower at the horizon needs no snapshot when the leader
        compacts — its LSN already covers the new snapshot's base."""
        with FollowerStore.open(tmp_path / "replica") as follower:
            shipper = WalShipper(leader.directory)
            shipper.sync(follower)
            leader.compact()
            leader.append_hashes("AT", _hashes(8, 20))
            result = shipper.sync(follower)
            assert not result.snapshot_installed
            assert result.records_shipped == 1
            assert follower.aggregator.to_bytes() == leader.aggregator.to_bytes()

    def test_sketch_merge_records_replicate(self, leader, tmp_path):
        from repro.core.exaloglog import ExaLogLog

        bucket = ExaLogLog(2, 20, 8).add_hashes(_hashes(9, 100))
        leader.merge_sketch("bucket:1", bucket)
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(leader.directory).sync(follower)
            assert follower.aggregator.to_bytes() == leader.aggregator.to_bytes()

    def test_replica_serves_readers(self, leader, tmp_path):
        follower = FollowerStore.open(tmp_path / "replica")
        WalShipper(leader.directory).sync(follower)
        follower.close()
        with SnapshotReader.open(tmp_path / "replica") as reader:
            assert reader.aggregator.to_bytes() == leader.aggregator.to_bytes()
            assert reader.estimates() == leader.estimates()

    def test_torn_leader_tail_is_not_shipped(self, leader, tmp_path):
        """Only the durable prefix replicates; the torn tail stays put."""
        leader.close()
        wal_file = wal_path(leader.directory, 0)
        torn = wal_file.read_bytes() + b"\x01\x15partial-append"
        wal_file.write_bytes(torn)
        with FollowerStore.open(tmp_path / "replica") as follower:
            result = WalShipper(leader.directory).sync(follower)
        assert result.follower_lsn == 3
        assert wal_file.read_bytes() == torn, "shipper mutated the leader WAL"
