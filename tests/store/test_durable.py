"""Directory durability: creation syncs the parent, a clean reopen syncs nothing."""

import os

import numpy as np
import pytest

from repro.cluster import ShardedStore
from repro.store import FollowerStore, SketchStore

OPENERS = {
    "store": SketchStore.open,
    "follower": FollowerStore.open,
    "cluster": lambda path: ShardedStore.open(path, shards=2),
}


@pytest.mark.parametrize("kind", sorted(OPENERS))
def test_creating_a_directory_syncs_its_parent(tmp_path, fsynced_inodes, kind):
    opener = OPENERS[kind]
    parent = tmp_path / "parent"
    opener(parent / "new").close()
    # Both directories this open created are synced into their parents.
    assert os.stat(tmp_path).st_ino in fsynced_inodes
    assert os.stat(parent).st_ino in fsynced_inodes
    fsynced_inodes.clear()
    reopened = opener(parent / "new")
    try:
        assert fsynced_inodes == []
    finally:
        reopened.close()


def test_reopening_an_intact_store_syncs_nothing(tmp_path, fsynced_inodes):
    """Recovery of a cleanly closed store writes no file, so it syncs none."""
    rng = np.random.Generator(np.random.PCG64(1))
    with SketchStore.open(tmp_path / "s", fsync=True) as store:
        store.append_hashes("DE", rng.integers(0, 1 << 64, size=30, dtype=np.uint64))
        store.compact()
        store.append_hashes("AT", rng.integers(0, 1 << 64, size=30, dtype=np.uint64))
    fsynced_inodes.clear()
    reopened = SketchStore.open(tmp_path / "s", fsync=True)
    try:
        assert fsynced_inodes == []
        assert reopened.durable_lsn == 2 and reopened.wal_records == 1
    finally:
        reopened.close()
