"""Spill-to-disk GROUP BY: exactness, partitioning, independent writers."""

import gc
import io

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.parallel import shard_of
from repro.query import Estimate, Filter, Scan, TopK, execute
from repro.storage.serialization import SerializationError, read_record_from
from repro.store import SpilledGroupBy, spill_files


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
            assert sorted(spill_files(tmp_path / "s")) == list(range(8))
            keys = 0
            for partition in range(8):
                merged = spill._part(partition)  # that partition's files alone
                assert all(shard_of(key, 8) == partition for key in merged.groups())
                keys += len(merged)
            assert keys == 100

    def test_two_writers_one_directory(self, tmp_path):
        groups, items = _batch(6000, 120, seed=6)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=4) as left, SpilledGroupBy(
            tmp_path / "s", p=8, partitions=4
        ) as right:
            right._writer_id = "other"  # distinct writer, same directory
            left.add_batch(groups[:3000], items[:3000])
            right.add_batch(groups[3000:], items[3000:])
            left.flush()
            right.flush()
            assert left.to_aggregator().to_bytes() == reference.to_bytes()

    def test_one_directory_listing_per_top(self, tmp_path, monkeypatch):
        from repro.store import spill as spill_module

        groups, items = _batch(4000, 100, seed=12)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        listings = []

        def counting(directory, partition=None):
            listings.append(directory)
            return spill_files(directory, partition)

        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            spill.add_batch(groups, items)
            monkeypatch.setattr(spill_module, "spill_files", counting)
            assert spill.top(5) == reference.top(5)
        assert len(listings) == 1

    @pytest.mark.parametrize("read", ["group_sketch", "estimate", "in"])
    def test_a_point_read_lists_only_its_own_partitions_files(self, tmp_path, monkeypatch, read):
        from repro.store import spill as spill_module

        groups, items = _batch(4000, 100, seed=13)
        reference = DistinctCountAggregator(2, 20, 8).add_batch(groups, items)
        key = next(iter(reference.groups()))
        listed = []

        def counting(directory, partition=None):
            files = spill_files(directory, partition)
            listed.append((partition, sorted(files)))
            return files

        with SpilledGroupBy(tmp_path / "s", p=8, partitions=8) as spill:
            spill.add_batch(groups, items)
            monkeypatch.setattr(spill_module, "spill_files", counting)
            answer = {
                "group_sketch": lambda: spill.group_sketch(key).to_bytes(),
                "estimate": lambda: spill.estimate(key),
                "in": lambda: key in spill,
            }[read]()
        expected = {
            "group_sketch": lambda: reference.group_sketch(key).to_bytes(),
            "estimate": lambda: reference.estimate(key),
            "in": lambda: True,
        }[read]()
        assert answer == expected
        owner = shard_of(key, 8)
        assert listed == [(owner, [owner])]

    def test_a_spill_with_no_partitions_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="partitions must be >= 1"):
            SpilledGroupBy(tmp_path / "s", partitions=0)
        assert not (tmp_path / "s").exists()

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
        with SpilledGroupBy(tmp_path / "s", p=8, partitions=1) as writer:
            with pytest.raises(SerializationError, match="truncated"):
                writer.top(1)

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
        read_record_from(handle, lsn=False)
        second = handle.tell()
        read_record_from(handle, lsn=False)
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
            SpilledGroupBy(tmp_path / "s", p=8, partitions=1).top(3)

    def test_foreign_file_raises(self, tmp_path):
        SpilledGroupBy(tmp_path / "s", p=8, partitions=1).close()
        path = tmp_path / "s" / "part-0000-w1.spill"
        path.write_bytes(b"not a spill file")
        with pytest.raises(SerializationError, match="bad file header"):
            SpilledGroupBy.attach(tmp_path / "s").top(1)

    def test_empty_batch_is_noop(self, tmp_path):
        spill = SpilledGroupBy(tmp_path / "s", p=8, partitions=4)
        spill.add_batch([], [])
        assert spill.records_spilled == 0
        assert spill.estimates() == {}
