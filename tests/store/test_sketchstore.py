"""SketchStore: WAL + snapshot durability, recovery, compaction."""

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.core.exaloglog import ExaLogLog
from repro.core.sparse import SparseExaLogLog
from repro.storage.serialization import SerializationError
from repro.store import SketchStore


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _reference(batches, config=(2, 20, 8, True, 0)):
    aggregator = DistinctCountAggregator(*config)
    for group, hashes in batches:
        key = DistinctCountAggregator._group_key(group)
        sketch = aggregator._groups.get(key)
        if sketch is None:
            sketch = aggregator._new_sketch()
            aggregator._groups[key] = sketch
        sketch.add_hashes(hashes)
    return aggregator


BATCHES = [
    ("DE", _hashes(1, 700)),
    ("AT", _hashes(2, 40)),
    ("DE", _hashes(3, 300)),
    ("CH", _hashes(4, 5)),
]


class TestBasics:
    def test_append_matches_in_memory_aggregator(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            for group, hashes in BATCHES:
                store.append_hashes(group, hashes)
            assert store.aggregator.to_bytes() == _reference(BATCHES).to_bytes()
            assert store.wal_records == len(BATCHES)

    def test_append_items_hashes_like_aggregator(self, tmp_path):
        items = ["alice", "bob", "alice", 17, 3.5]
        reference = DistinctCountAggregator(2, 20, 8)
        for item in items:
            reference.add("users", item)
        with SketchStore.open(tmp_path / "s") as store:
            store.append("users", items)
            assert store.aggregator.to_bytes() == reference.to_bytes()
            assert round(store.estimate("users")) == 4

    def test_empty_append_writes_nothing(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            before = store.wal_bytes
            store.append_hashes("g", np.array([], dtype=np.uint64))
            assert store.wal_bytes == before
            assert store.wal_records == 0

    def test_query_api(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            store.append_hashes("DE", _hashes(5, 100))
            assert "DE" in store
            assert "FR" not in store
            assert len(store) == 1
            assert list(store.groups()) == [b"DE"]
            assert store.estimate("FR") == 0.0
            assert set(store.estimates()) == {b"DE"}

    def test_closed_store_rejects_appends(self, tmp_path):
        store = SketchStore.open(tmp_path / "s")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.append_hashes("g", _hashes(6, 10))


class TestRecovery:
    def test_reopen_without_close_replays_wal(self, tmp_path):
        store = SketchStore.open(tmp_path / "s")
        for group, hashes in BATCHES:
            store.append_hashes(group, hashes)
        # Drop the store without close(): the WAL was flushed per append.
        # A crash releases the WAL handle without close()'s fsync.
        store._wal_handle.close()
        del store
        recovered = SketchStore.open(tmp_path / "s")
        assert recovered.aggregator.to_bytes() == _reference(BATCHES).to_bytes()
        assert recovered.wal_records == len(BATCHES)
        recovered.close()

    def test_recovered_store_accepts_more_appends(self, tmp_path):
        store = SketchStore.open(tmp_path / "s")
        store.append_hashes("DE", BATCHES[0][1])
        store._wal_handle.close()  # a crash: no close(), no fsync
        del store
        with SketchStore.open(tmp_path / "s") as recovered:
            for group, hashes in BATCHES[1:]:
                recovered.append_hashes(group, hashes)
        with SketchStore.open(tmp_path / "s") as final:
            assert final.aggregator.to_bytes() == _reference(BATCHES).to_bytes()

    def test_fsync_mode(self, tmp_path):
        with SketchStore.open(tmp_path / "s", fsync=True) as store:
            store.append_hashes("DE", _hashes(7, 50))
        with SketchStore.open(tmp_path / "s") as recovered:
            assert len(recovered) == 1

    def test_sketch_records_replay(self, tmp_path):
        bucket = ExaLogLog(2, 20, 8).add_hashes(_hashes(8, 300))
        store = SketchStore.open(tmp_path / "s")
        store.merge_sketch("bucket:7", bucket)
        store.merge_sketch("bucket:7", bucket)  # idempotent merge
        store._wal_handle.close()  # a crash: no close(), no fsync
        del store
        with SketchStore.open(tmp_path / "s") as recovered:
            assert recovered.estimate("bucket:7") == bucket.estimate()

    def test_sparse_sketch_record_into_dense_store(self, tmp_path):
        sparse = SparseExaLogLog(2, 20, 8)
        for value in _hashes(9, 20).tolist():
            sparse.add_hash(value)
        with SketchStore.open(tmp_path / "s", sparse=False) as store:
            store.merge_sketch("g", sparse)
            assert store.estimate("g") == sparse.densify().estimate()
        with SketchStore.open(tmp_path / "s") as recovered:
            assert recovered.estimate("g") == sparse.densify().estimate()


class TestConfiguration:
    def test_custom_config_persists(self, tmp_path):
        with SketchStore.open(tmp_path / "s", t=1, d=9, p=6, sparse=False, seed=5):
            pass
        with SketchStore.open(tmp_path / "s") as store:
            assert store.aggregator.config == (1, 9, 6, False, 5)

    def test_mismatched_config_rejected(self, tmp_path):
        SketchStore.open(tmp_path / "s", p=8).close()
        with pytest.raises(ValueError, match="configuration"):
            SketchStore.open(tmp_path / "s", p=10)

    def test_defaults_do_not_conflict(self, tmp_path):
        SketchStore.open(tmp_path / "s", t=1, d=9, p=6).close()
        with SketchStore.open(tmp_path / "s") as store:  # no explicit params
            assert store.aggregator.config[:3] == (1, 9, 6)


class TestCompaction:
    def test_compact_preserves_state_and_rotates_files(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            for group, hashes in BATCHES:
                store.append_hashes(group, hashes)
            blob = store.aggregator.to_bytes()
            generation = store.compact()
            assert generation == 1
            assert store.wal_records == 0
            assert store.aggregator.to_bytes() == blob
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["snapshot-00000001.bin", "wal-00000001.log"]
        with SketchStore.open(tmp_path / "s") as reopened:
            assert reopened.generation == 1
            assert reopened.aggregator.to_bytes() == blob

    def test_append_after_compact_recovers(self, tmp_path):
        store = SketchStore.open(tmp_path / "s")
        store.append_hashes("DE", BATCHES[0][1])
        store.compact()
        store.append_hashes("AT", BATCHES[1][1])
        store._wal_handle.close()  # a crash: no close(), no fsync
        del store
        with SketchStore.open(tmp_path / "s") as recovered:
            expected = _reference(BATCHES[:2])
            assert recovered.aggregator.to_bytes() == expected.to_bytes()
            assert recovered.wal_records == 1

    def test_auto_compaction_bounds_wal(self, tmp_path):
        with SketchStore.open(tmp_path / "s", auto_compact_bytes=4096) as store:
            for index in range(20):
                store.append_hashes(f"g{index}", _hashes(index, 200))
            assert store.generation > 0
            assert store.wal_bytes <= 4096 + 2048  # one record may overshoot
            reference = _reference(
                [(f"g{index}", _hashes(index, 200)) for index in range(20)]
            )
            assert store.aggregator.to_bytes() == reference.to_bytes()

    def test_stale_generation_files_swept_on_open(self, tmp_path):
        with SketchStore.open(tmp_path / "s") as store:
            store.append_hashes("DE", BATCHES[0][1])
            store.compact()
        # Simulate a crash that left generation-0 files behind, plus the
        # WAL-index files of both generations that older stores kept.
        (tmp_path / "s" / "snapshot-00000000.bin").write_bytes(b"stale")
        (tmp_path / "s" / "wal-00000000.log").write_bytes(b"stale")
        (tmp_path / "s" / "walidx-00000000.log").write_bytes(b"stale")
        (tmp_path / "s" / "walidx-00000001.log").write_bytes(b"stale")
        with SketchStore.open(tmp_path / "s") as store:
            assert store.generation == 1
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["snapshot-00000001.bin", "wal-00000001.log"]


class TestCorruption:
    def test_corrupt_snapshot_raises(self, tmp_path):
        SketchStore.open(tmp_path / "s").close()
        (tmp_path / "s" / "snapshot-00000000.bin").write_bytes(b"garbage here")
        with pytest.raises(SerializationError):
            SketchStore.open(tmp_path / "s")

    def test_foreign_wal_header_raises(self, tmp_path):
        SketchStore.open(tmp_path / "s").close()
        (tmp_path / "s" / "wal-00000000.log").write_bytes(b"XXXXXXXX")
        with pytest.raises(SerializationError):
            SketchStore.open(tmp_path / "s")
