"""SnapshotReader: lock-free reads, refresh semantics, point reads."""

import sys

import numpy as np
import pytest

from repro.storage.serialization import SerializationError
from repro.store import SketchStore, SnapshotReader, snapshot_path, wal_path
from repro.store import sketchstore


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def test_open_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        SnapshotReader.open(tmp_path / "absent")


def test_open_uninitialised_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SerializationError, match="no snapshot"):
        SnapshotReader.open(tmp_path / "empty")


def test_constructor_is_blocked():
    with pytest.raises(TypeError, match="open"):
        SnapshotReader()


def test_reader_view_matches_writer(tmp_path):
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(1, 500))
        store.append_hashes("AT", _hashes(2, 50))
        with SnapshotReader.open(tmp_path / "s") as reader:
            assert len(reader) == 2
            assert "DE" in reader and "FR" not in reader
            assert sorted(reader.groups()) == [b"AT", b"DE"]
            assert reader.durable_lsn == store.durable_lsn == 2
            assert reader.estimates() == store.estimates()
            assert reader.estimate("DE") == store.estimate("DE")
            assert reader.top(1) == store.aggregator.top(1)
            assert reader.aggregator.to_bytes() == store.aggregator.to_bytes()


def test_refresh_tails_new_records(tmp_path):
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(3, 100))
        with SnapshotReader.open(tmp_path / "s") as reader:
            assert reader.durable_lsn == 1
            store.append_hashes("DE", _hashes(4, 100))
            store.append_hashes("AT", _hashes(5, 10))
            result = reader.refresh()
            assert result.records_applied == 2
            assert not result.generation_changed
            assert reader.durable_lsn == 3
            assert reader.aggregator.to_bytes() == store.aggregator.to_bytes()


def test_refresh_follows_compaction(tmp_path):
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(6, 100))
        with SnapshotReader.open(tmp_path / "s") as reader:
            store.compact()
            store.append_hashes("AT", _hashes(7, 10))
            result = reader.refresh()
            assert result.generation_changed
            assert reader.generation == 1
            assert reader.base_lsn == 1
            assert reader.durable_lsn == store.durable_lsn == 2
            assert reader.aggregator.to_bytes() == store.aggregator.to_bytes()
            # Horizon is monotone even with nothing new.
            assert reader.refresh().durable_lsn == 2


def test_reader_without_wal_file_serves_snapshot(tmp_path):
    """Compaction race: the snapshot exists but its WAL does not yet."""
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(8, 100))
        store.compact()
    wal_path(tmp_path / "s", 1).unlink()
    with SnapshotReader.open(tmp_path / "s") as reader:
        assert reader.durable_lsn == reader.base_lsn == 1
        assert round(reader.estimate("DE")) > 0


def test_group_sketch_answers_at_the_view_horizon(tmp_path):
    """group_sketch answers at the view's horizon until refresh()."""
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(15, 200))
        with SnapshotReader.open(tmp_path / "s") as reader:
            before = reader.group_sketch("DE").to_bytes()
            store.append_hashes("DE", _hashes(16, 200))
            # No refresh: the point read must match the *old* view.
            assert reader.group_sketch("DE").to_bytes() == before
            assert before == reader.aggregator.group_sketch(b"DE").to_bytes()
            reader.refresh()
            assert (
                reader.group_sketch("DE").to_bytes()
                == store.aggregator.group_sketch(b"DE").to_bytes()
            )


def test_reader_ignores_writer_torn_tail(tmp_path):
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(17, 100))
    wal_file = wal_path(tmp_path / "s", 0)
    original = wal_file.read_bytes()
    wal_file.write_bytes(original + b"\x01\x22half-a-record")
    with SnapshotReader.open(tmp_path / "s") as reader:
        assert reader.durable_lsn == 1
        # The torn bytes are still there: the reader never truncates.
        assert wal_file.read_bytes().endswith(b"half-a-record")
        # When the "writer" completes the record, refresh picks it up.
        wal_file.write_bytes(original)
        with SketchStore.open(tmp_path / "s") as store:
            store.append_hashes("DE", _hashes(18, 50))
        assert reader.refresh().records_applied == 1
        assert reader.durable_lsn == 2


def test_reader_rejects_garbage_wal(tmp_path):
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(19, 50))
    wal_file = wal_path(tmp_path / "s", 0)
    data = bytearray(wal_file.read_bytes())
    # Corrupt payload bytes mid-record: the record still parses as
    # complete, so the CRC check must refuse it (a flipped *length* byte
    # may instead read as a torn tail, which is survivable by design).
    data[50] ^= 0xFF
    wal_file.write_bytes(bytes(data))
    with pytest.raises(SerializationError):
        SnapshotReader.open(tmp_path / "s")


def test_reader_rejects_corrupt_snapshot(tmp_path):
    """Corruption inside the aggregator blob surfaces as SerializationError."""
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(20, 50))
        store.compact()
    snapshot = tmp_path / "s" / "snapshot-00000001.bin"
    data = bytearray(snapshot.read_bytes())
    data[30] ^= 0xFF  # corrupt inside the aggregator blob
    snapshot.write_bytes(bytes(data))
    with pytest.raises(SerializationError):
        SnapshotReader.open(tmp_path / "s")


def test_group_sketch_survives_concurrent_sweep(tmp_path):
    """A point read answers from the tailed view even when the writer
    sweeps this generation's files mid-query — never a crash, never a
    silently stale (snapshot-only) answer."""
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(21, 200))
        store.compact()
        store.append_hashes("DE", _hashes(22, 100))  # tailed past the snapshot
        with SnapshotReader.open(tmp_path / "s") as reader:
            expected = reader.aggregator.group_sketch(b"DE").to_bytes()
            # Simulate the sweep of a concurrent compaction: WAL first.
            wal_path(tmp_path / "s", 1).unlink()
            assert reader.group_sketch("DE").to_bytes() == expected
            # ...then the snapshot too.
            (tmp_path / "s" / "snapshot-00000001.bin").unlink()
            assert reader.group_sketch("DE").to_bytes() == expected
            assert reader.group_sketch("missing") is None


def test_group_sketch_index_cache_tracks_appends(tmp_path):
    """Repeat point reads agree, and follow the writer's appends once the
    view refreshes."""
    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(23, 100))
        with SnapshotReader.open(tmp_path / "s") as reader:
            first = reader.group_sketch("DE").to_bytes()
            assert reader.group_sketch("DE").to_bytes() == first  # cache hit
            store.append_hashes("DE", _hashes(24, 100))
            reader.refresh()
            assert (
                reader.group_sketch("DE").to_bytes()
                == store.aggregator.group_sketch(b"DE").to_bytes()
            )


def test_foreign_snapshot_error_names_the_directory(tmp_path):
    """A snapshot file holding the wrong generation is attributed to its
    store directory (multi-shard layouts open many directories at once)."""
    import shutil

    with SketchStore.open(tmp_path / "s") as store:
        store.append_hashes("DE", _hashes(31, 50))
        store.compact()
    # A foreign/renamed snapshot: generation 1's bytes under generation 2's
    # name becomes the newest generation the reader will try to open.
    shutil.copy(
        tmp_path / "s" / "snapshot-00000001.bin",
        tmp_path / "s" / "snapshot-00000002.bin",
    )
    with pytest.raises(SerializationError) as excinfo:
        SnapshotReader.open(tmp_path / "s")
    assert str(tmp_path / "s") in str(excinfo.value)
    assert "holds generation" in str(excinfo.value)


READ_ONLY_OPENERS = {
    "store": lambda directory: SketchStore.open(directory, read_only=True),
    "reader": SnapshotReader.open,
}


@pytest.mark.parametrize("opener", sorted(READ_ONLY_OPENERS))
def test_read_only_open_follows_a_compaction_after_its_listing(
    tmp_path, monkeypatch, opener
):
    """A writer that compacts between a read-only open's directory listing
    and its read sweeps the generation the listing named; the open rescans
    and loads the newest generation instead of failing on the swept file."""
    directory = tmp_path / "s"
    with SketchStore.open(directory, p=8) as store:
        store.append_hashes("DE", _hashes(41, 200))
        store.compact()
        store.append_hashes("AT", _hashes(42, 20))
        expected = store.aggregator.to_bytes()
    assert not snapshot_path(directory, 0).exists()

    listed = sketchstore.latest_generation
    calls = []

    def stale_first_listing(path):
        calls.append(path)
        return 0 if len(calls) == 1 else listed(path)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "repro" and getattr(
            module, "latest_generation", None
        ) is listed:
            monkeypatch.setattr(module, "latest_generation", stale_first_listing)
    with READ_ONLY_OPENERS[opener](directory) as view:
        assert len(calls) >= 2  # the stale listing, then a rescan
        assert view.generation == 1
        assert view.durable_lsn == 2
        assert view.aggregator.to_bytes() == expected
