"""Spill-to-disk GROUP BY: exactness, partitioning, independent writers."""

import gc
import io

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.parallel import shard_of
from repro.query import Estimate, Filter, Scan, TopK, execute
from repro.storage.serialization import SerializationError, read_record_from
from repro.store import SpilledGroupBy, SpillWriter, read_spill_file, spill_files


def _batch(n, groups, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (
        rng.integers(0, groups, size=n).astype(np.int64),
        rng.integers(0, 1 << 63, size=n, dtype=np.int64),
    )


class TestEquivalence:
    def test_bit_identical_to_in_memory_aggregator(self, tmp_path):
        groups, items = _batch(20000, 500, seed=1)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            spill.add_batch(groups[:12000], items[:12000])
            spill.add_batch(groups[12000:], items[12000:])
            assert spill.to_aggregator().to_bytes() == reference.to_bytes()
            assert spill.estimates() == reference.estimates()
            assert len(spill) == len(reference)

    def test_per_group_sketches_bit_identical(self, tmp_path):
        groups, items = _batch(5000, 40, seed=2)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        seen = {}
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=4) as spill:
            spill.add_batch(groups, items)
            for partial in spill.partition_aggregators():
                for key in partial.groups():
                    assert key not in seen, "group appears in two partitions"
                    seen[key] = partial.group_sketch(key).to_bytes()
        assert seen == {
            key: sketch.to_bytes() for key, sketch in reference.sketches().items()
        }

    def test_aggregator_spill_parameter_routes_batches(self, tmp_path):
        groups, items = _batch(8000, 200, seed=3)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        aggregator = DistinctCountAggregator(2, 20, 8)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            aggregator.add_batch(groups, items, spill=spill)
            assert len(aggregator) == 0  # nothing accumulated in memory
            assert spill.to_aggregator().to_bytes() == reference.to_bytes()

    def test_spill_parameter_config_mismatch_rejected(self, tmp_path):
        spill = SpilledGroupBy(tmp_path / "s", p=10)
        with pytest.raises(ValueError, match="configuration"):
            DistinctCountAggregator(2, 20, 8).add_batch(["g"], ["x"], spill=spill)

    def test_add_pairs_and_single_estimate(self, tmp_path):
        pairs = [("DE", f"u{i}") for i in range(300)] + [("AT", "solo")]
        reference = DistinctCountAggregator(2, 20, 8).add_pairs(pairs)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=4) as spill:
            spill.add_pairs(pairs)
            assert spill.estimate("DE") == reference.estimate("DE")
            assert spill.estimate("AT") == reference.estimate("AT")
            assert spill.estimate("missing") == 0.0

    def test_seed_and_sparse_flags_respected(self, tmp_path):
        groups, items = _batch(3000, 50, seed=4)
        reference = DistinctCountAggregator(2, 20, 8, sparse=False, seed=42)
        reference.add_batch(groups, items)
        with SpilledGroupBy(
            tmp_path / "s", p=8, sparse=False, seed=42, partitions=4
        ) as spill:
            spill.add_batch(groups, items)
            assert spill.to_aggregator().to_bytes() == reference.to_bytes()


class TestPartitioningAndWriters:
    def test_groups_land_in_their_shard_partition(self, tmp_path):
        groups, items = _batch(4000, 100, seed=5)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            spill.add_batch(groups, items)
        for partition, paths in spill_files(tmp_path / "s").items():
            for path in paths:
                for key, _ in read_spill_file(path):
                    assert shard_of(key, 8) == partition

    def test_two_writers_one_directory(self, tmp_path):
        groups, items = _batch(6000, 120, seed=6)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=4) as left, SpilledGroupBy(
            tmp_path / "s", p=8, partitions=4
        ) as right:
            right._writer._writer_id = "other"  # distinct writer, same directory
            left.add_batch(groups[:3000], items[:3000])
            right.add_batch(groups[3000:], items[3000:])
            left._writer.flush()
            right._writer.flush()
            assert left.to_aggregator().to_bytes() == reference.to_bytes()

    def test_one_directory_listing_per_top(self, tmp_path, monkeypatch):
        from repro.store import spill as spill_module

        groups, items = _batch(4000, 100, seed=12)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        listings = []

        def counting(directory):
            listings.append(directory)
            return spill_files(directory)

        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            spill.add_batch(groups, items)
            monkeypatch.setattr(spill_module, "spill_files", counting)
            assert spill.top(5) == reference.top(5)
        assert len(listings) == 1

    def test_writer_id_validation(self, tmp_path):
        with pytest.raises(ValueError, match="writer_id"):
            SpillWriter(tmp_path, 4, writer_id="has-dash")

    def test_cleanup_removes_files(self, tmp_path):
        spill = SpilledGroupBy(tmp_path / "s", p=8, partitions=4)
        spill.add_batch(*_batch(1000, 30, seed=9))
        spill.cleanup()
        assert spill_files(tmp_path / "s") == {}


def _live_aggregators() -> int:
    return sum(type(obj) is DistinctCountAggregator for obj in gc.get_objects())


#: Every read path of a spill that walks its partitions.
WALKS = {
    "Estimate(Scan())": lambda spill: execute(Estimate(Scan()), spill),
    "prefix TopK": lambda spill: execute(TopK(Filter(Scan(), prefix="g1"), 3), spill),
    "top": lambda spill: spill.top(3),
    "estimates": lambda spill: spill.estimates(),
    "iter_estimates": lambda spill: list(spill.iter_estimates()),
    "groups": lambda spill: list(spill.groups()),
}


class TestMemoryBound:
    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_a_walk_holds_at_most_two_partitions(self, tmp_path, monkeypatch, walk):
        """The partition a read is done with and the one it is building:
        never more, however many partitions the spill has."""
        groups, items = _batch(6000, 400, seed=14)
        real = SpilledGroupBy._partition_aggregator
        alive = []

        def counting(self, files):
            partial = real(self, files)
            alive.append(_live_aggregators() - baseline)
            return partial

        with SpilledGroupBy(tmp_path / "s", p=8, partitions=16) as spill:
            spill.add_batch([f"g{group}" for group in groups.tolist()], items)
            monkeypatch.setattr(SpilledGroupBy, "_partition_aggregator", counting)
            gc.collect()
            baseline = _live_aggregators()
            WALKS[walk](spill)
        assert len(alive) == 16
        assert max(alive) <= 2, alive


class TestSpillFileFormat:
    def test_truncated_spill_file_raises(self, tmp_path):
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=1) as spill:
            spill.add_batch(*_batch(500, 10, seed=10))
        [[path]] = spill_files(tmp_path / "s").values()
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(SerializationError, match="truncated"):
            list(read_spill_file(path))

    def test_record_errors_name_the_file_and_offset(self, tmp_path):
        from repro.store.sketchstore import _FILE_HEADER_BYTES

        spill = SpilledGroupBy(tmp_path / "s", p=8, partitions=1)
        for seed in (11, 12, 13):  # one record per partition per batch
            spill.add_batch(*_batch(500, 10, seed=seed))
        spill.close()
        [[path]] = spill_files(tmp_path / "s").values()
        intact = path.read_bytes()
        handle = io.BytesIO(intact)
        handle.seek(_FILE_HEADER_BYTES)
        read_record_from(handle)
        second = handle.tell()
        read_record_from(handle)
        third = handle.tell()
        data = bytearray(intact)
        data[third - 6] ^= 0x5A  # a payload byte of the second record
        path.write_bytes(bytes(data))
        for name, open_spill in {
            "writer": lambda: SpilledGroupBy(tmp_path / "s", p=8, partitions=1),
            "attached": lambda: SpilledGroupBy.attach(tmp_path / "s"),
        }.items():
            with pytest.raises(SerializationError) as caught:
                open_spill().top(3)
            message = str(caught.value)
            assert message.startswith(f"{path}: record at offset {second}: "), name
            assert "checksum mismatch" in message, name
        path.write_bytes(intact[: third + 3])
        with pytest.raises(
            SerializationError,
            match=f"record at offset {third}: truncated spill record",
        ):
            list(read_spill_file(path))

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "part-0000-w1.spill"
        path.write_bytes(b"not a spill file")
        with pytest.raises(SerializationError):
            list(read_spill_file(path))

    def test_empty_batch_is_noop(self, tmp_path):
        spill = SpilledGroupBy(tmp_path / "s", p=8, partitions=4)
        spill.add_batch([], [])
        assert spill.records_spilled == 0
        assert spill.estimates() == {}
