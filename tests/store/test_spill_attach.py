"""SpilledGroupBy.attach: querying spilled partitions from a reader process."""

import numpy as np
import pytest

from repro.store import SpilledGroupBy
from repro.store.spill import read_spill_meta, write_spill_meta


def _populate(directory, partitions=8):
    groupby = SpilledGroupBy(directory, p=8, partitions=partitions)
    rng = np.random.Generator(np.random.PCG64(11))
    groups = [f"g{i}" for i in rng.integers(0, 20, size=500)]
    items = rng.integers(0, 10_000, size=500)
    groupby.add_batch(groups, items)
    groupby.add_batch(["solo"], [1])
    return groupby


def test_meta_sidecar_round_trip(tmp_path):
    groupby = _populate(tmp_path / "spill")
    config, partitions = read_spill_meta(tmp_path / "spill")
    assert config == groupby.config
    assert partitions == groupby.partitions
    groupby.close()


def test_attach_serves_identical_results(tmp_path):
    writer = _populate(tmp_path / "spill")
    writer.flush()  # pending bytes to disk for the foreign reader
    attached = SpilledGroupBy.attach(tmp_path / "spill")
    assert attached.attached and not writer.attached
    assert attached.config == writer.config
    assert attached.partitions == writer.partitions
    assert attached.estimates() == writer.estimates()
    assert attached.top(5) == writer.top(5)
    assert attached.estimate("solo") == writer.estimate("solo")
    assert len(attached) == len(writer)
    assert (
        attached.to_aggregator().to_bytes() == writer.to_aggregator().to_bytes()
    )
    writer.close()
    attached.close()  # no-op: nothing to close read-only


def test_attach_rejects_ingest(tmp_path):
    _populate(tmp_path / "spill").close()
    attached = SpilledGroupBy.attach(tmp_path / "spill")
    with pytest.raises(ValueError, match="read-only"):
        attached.add_batch(["g"], ["x"])
    with pytest.raises(ValueError, match="read-only"):
        attached.write_segments([(b"g", np.array([1], dtype=np.uint64))])
    assert attached.records_spilled == 0


def test_attach_requires_meta(tmp_path):
    (tmp_path / "nometa").mkdir()
    with pytest.raises(FileNotFoundError):
        SpilledGroupBy.attach(tmp_path / "nometa")


def test_reopen_with_conflicting_config_rejected(tmp_path):
    _populate(tmp_path / "spill").close()
    with pytest.raises(ValueError, match="configuration"):
        SpilledGroupBy(tmp_path / "spill", p=10)
    with pytest.raises(ValueError, match="partitions"):
        SpilledGroupBy(tmp_path / "spill", p=8, partitions=4)
    # The matching configuration reattaches fine (resumed aggregation).
    resumed = SpilledGroupBy(tmp_path / "spill", p=8, partitions=8)
    resumed.close()


def test_corrupt_meta_rejected(tmp_path):
    from repro.storage.serialization import SerializationError

    directory = tmp_path / "spill"
    directory.mkdir()
    write_spill_meta(directory, (2, 20, 8, True, 0), 8)
    meta = directory / "spill.meta"
    meta.write_bytes(meta.read_bytes() + b"trailing")
    with pytest.raises(SerializationError, match="trailing"):
        SpilledGroupBy.attach(directory)


def test_cleanup_removes_meta(tmp_path):
    groupby = _populate(tmp_path / "spill")
    groupby.cleanup()
    assert not (tmp_path / "spill" / "spill.meta").exists()


def test_attach_tolerates_writers_torn_tail(tmp_path):
    """A half-flushed record at a file tail is invisible to an attached
    reader (prefix semantics), while the writing aggregation stays strict."""
    from repro.storage.serialization import SerializationError
    from repro.store import spill_files

    writer = _populate(tmp_path / "spill")
    writer.flush()
    attached = SpilledGroupBy.attach(tmp_path / "spill")
    before = attached.estimates()
    # Simulate a writer's in-flight append on one partition file.
    victim = next(iter(spill_files(tmp_path / "spill").values()))[0]
    victim.write_bytes(victim.read_bytes() + b"\x01\x09half-a-rec")
    assert attached.estimates() == before  # prefix view, no crash
    with pytest.raises(SerializationError, match="truncated"):
        writer.estimates()  # the strict (writer) read still raises
    writer.close()


def test_attach_missing_meta_names_the_directory(tmp_path):
    """Attaching a non-spill directory says *which* directory and why —
    a bare errno is hard to attribute in a multi-shard layout."""
    (tmp_path / "not-a-spill").mkdir()
    with pytest.raises(FileNotFoundError, match="not-a-spill.*spill.meta"):
        SpilledGroupBy.attach(tmp_path / "not-a-spill")
    with pytest.raises(FileNotFoundError, match="not a spill directory"):
        read_spill_meta(tmp_path / "not-a-spill")
