"""Cluster group commit: one WAL write and one fsync per shard per batch."""

import os

import numpy as np
import pytest

from repro.aggregate import segment
from repro.cluster import ShardedStore
from repro.store import wal_path

CONFIG = dict(t=2, d=20, p=8)


def _batch(seed, rows=300, keys=40):
    rng = np.random.Generator(np.random.PCG64(seed))
    groups = rng.integers(0, keys, size=rows).astype(np.int64)
    items = rng.integers(0, 1 << 40, size=rows, dtype=np.int64)
    return groups, items


def _shard_files(cluster):
    """Every shard's WAL bytes, by shard and file name."""
    files = {}
    for index, shard in enumerate(cluster.shard_stores):
        for path in sorted(shard.directory.iterdir()):
            if path.name.startswith("wal-"):
                files[index, path.name] = path.read_bytes()
    return files


def _wal_inodes(cluster):
    return [
        os.stat(wal_path(shard.directory, shard.generation)).st_ino
        for shard in cluster.shard_stores
    ]


def test_add_batch_writes_the_bytes_of_one_append_per_segment(tmp_path):
    """add_batch writes what per-segment appends inside one batch() write."""
    batches = [_batch(1), _batch(2)]
    with ShardedStore.open(tmp_path / "batched", shards=3, **CONFIG) as batched:
        for groups, items in batches:
            batched.add_batch(groups, items)
        batched_files = _shard_files(batched)
        state = batched.to_aggregator().to_bytes()
    with ShardedStore.open(tmp_path / "single", shards=3, **CONFIG) as single:
        for groups, items in batches:
            with single.batch():
                for key, hashes in segment(groups, items, single.config[4]):
                    single.append_hashes(key, hashes)
        single_files = _shard_files(single)
        assert single.to_aggregator().to_bytes() == state
    assert batched_files.keys() == single_files.keys()
    assert len(batched_files) == 3
    for name, data in batched_files.items():
        assert data == single_files[name], f"{name} differs"


def test_add_batch_fsyncs_once_per_shard_that_received_records(
    tmp_path, fsynced_inodes
):
    with ShardedStore.open(
        tmp_path / "c", shards=4, fsync=True, **CONFIG
    ) as cluster:
        wal_inodes = _wal_inodes(cluster)
        # Two groups reach at most two of the four shards.
        groups = np.array([3, 11, 3, 11, 3], dtype=np.int64)
        owners = sorted({cluster.shard_of(int(group)) for group in groups})
        fsynced_inodes.clear()
        cluster.add_batch(groups, np.arange(len(groups), dtype=np.int64))
        assert sorted(fsynced_inodes) == sorted(wal_inodes[i] for i in owners)
        # A batch over many groups reaches every shard: one fsync and one
        # record each, however many groups it holds.
        fsynced_inodes.clear()
        cluster.add_batch(*_batch(3))
        assert sorted(fsynced_inodes) == sorted(wal_inodes)
        records = [shard.wal_records for shard in cluster.shard_stores]
        assert records == [1 + (index in owners) for index in range(4)]


def test_empty_scope_writes_nothing(tmp_path, fsynced_inodes):
    with ShardedStore.open(
        tmp_path / "c", shards=2, fsync=True, **CONFIG
    ) as cluster:
        cluster.add_batch(*_batch(4))
        before = _shard_files(cluster)
        fsynced_inodes.clear()
        with cluster.batch():
            pass
        cluster.add_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert fsynced_inodes == []
        assert _shard_files(cluster) == before


def test_exception_inside_cluster_batch_writes_nothing(tmp_path):
    with ShardedStore.open(tmp_path / "c", shards=3, **CONFIG) as cluster:
        cluster.add_batch(*_batch(5))
        before = _shard_files(cluster)
        state = cluster.to_aggregator().to_bytes()
        with pytest.raises(RuntimeError, match="abandon"):
            with cluster.batch():
                cluster.add_batch(*_batch(6))
                # Reads inside the scope see the state from before it.
                assert cluster.to_aggregator().to_bytes() == state
                raise RuntimeError("abandon the batch")
        assert _shard_files(cluster) == before
        assert cluster.to_aggregator().to_bytes() == state
        cluster.add_batch(*_batch(6))  # still usable
        expected = cluster.to_aggregator().to_bytes()
    with ShardedStore.open(tmp_path / "c") as reopened:
        assert reopened.to_aggregator().to_bytes() == expected


def test_rebalance_and_compact_inside_a_batch_raise(tmp_path):
    with ShardedStore.open(tmp_path / "c", shards=2, **CONFIG) as cluster:
        cluster.add_batch(*_batch(7))
        with cluster.batch():
            with pytest.raises(ValueError, match="batch"):
                cluster.rebalance(3)
            with pytest.raises(ValueError, match="batch"):
                cluster.compact()
        assert cluster.shards == 2
        assert cluster.rebalance(3).to_shards == 3


def test_a_rebalance_fsyncs_no_more_when_it_moves_more_groups(tmp_path, fsynced_inodes):
    """The copy and the drop stage each commit once per shard."""
    fsyncs, moved = [], []
    for keys in (200, 2000):
        with ShardedStore.open(
            tmp_path / f"c{keys}", shards=2, fsync=True, **CONFIG
        ) as cluster:
            cluster.add_batch(np.arange(keys, dtype=np.int64), np.arange(keys, dtype=np.int64))
            fsynced_inodes.clear()
            moved.append(cluster.rebalance(3).moved_groups)
            fsyncs.append(len(fsynced_inodes))
    assert moved[1] > 5 * moved[0]
    assert fsyncs[0] == fsyncs[1]
