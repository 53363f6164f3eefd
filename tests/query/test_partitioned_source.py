"""One read surface for hash-partitioned sources, one rule per test.

A 3-shard :class:`~repro.cluster.ShardedStore`, a reader-backed
:class:`~repro.cluster.ClusterSource` over it and a 4-partition
:class:`~repro.store.SpilledGroupBy` take the same hash stream as an
in-memory aggregator. Every read they share through
:class:`~repro.query.source.PartitionedSource` must answer what the
aggregator answers, for seen and unseen keys alike. The one ``top``
order, which lets a partitioned ``top`` only merge, is checked on every
source kind.
"""

import pytest

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.hashing import to_bytes
from repro.query import Scan, TopK, execute, query
from repro.store import FollowerStore, SketchStore, SnapshotReader, SpilledGroupBy, WalShipper
from repro.windowed import SlidingWindowDistinctCounter
from tests.invariants.harness import random_scenario, rounds

UNSEEN = ("never-seen", b"\x00never", 12345)


@pytest.fixture(params=rounds(3))
def scenario_sources(request, tmp_path):
    """``(keys, reference aggregator, {name: partitioned source})``."""
    scenario = random_scenario(11000 + request.param)
    t, d, p, sparse, seed = scenario.config
    reference = DistinctCountAggregator(*scenario.config)
    sharded = ShardedStore.open(
        tmp_path / "cluster", shards=3, t=t, d=d, p=p, sparse=sparse, seed=seed
    )
    spill = SpilledGroupBy(
        tmp_path / "spill", t=t, d=d, p=p, sparse=sparse, seed=seed, partitions=4
    )
    for step in scenario.hash_steps():
        key = to_bytes(step.group)
        reference.fold(key, step.hashes)
        sharded.append_hashes(step.group, step.hashes)
        spill.write_segments([(key, step.hashes)])
    readers = ClusterSource.open(tmp_path / "cluster", reader=True)
    sources = {"sharded": sharded, "cluster": readers, "spill": spill}
    yield [*scenario.groups, *UNSEEN], reference, sources
    readers.close()
    sharded.close()
    spill.close()


def test_len_and_membership_match_the_aggregator(scenario_sources):
    keys, reference, sources = scenario_sources
    for name, source in sources.items():
        assert len(source) == len(reference), name
        for key in keys:
            assert (key in source) == (key in reference), (name, key)


def test_groups_match_as_a_set(scenario_sources):
    _, reference, sources = scenario_sources
    for name, source in sources.items():
        assert set(source.groups()) == set(reference.groups()), name


def test_point_reads_route_to_the_owning_part(scenario_sources):
    keys, reference, sources = scenario_sources
    for name, source in sources.items():
        for key in keys:
            assert source.estimate(key) == reference.estimate(key), (name, key)
            expected = reference.group_sketch(key)
            actual = source.group_sketch(key)
            if expected is None:
                assert actual is None, (name, key)
            else:
                assert actual.to_bytes() == expected.to_bytes(), (name, key)


def test_estimates_join_the_parts_bit_for_bit(scenario_sources):
    _, reference, sources = scenario_sources
    expected = reference.estimates()
    for name, source in sources.items():
        assert source.estimates() == expected, name
        assert dict(source.iter_estimates()) == expected, name


def test_top_ranks_by_estimate_then_key(scenario_sources):
    _, reference, sources = scenario_sources
    ranked = sorted(reference.estimates().items(), key=lambda kv: (-kv[1], kv[0]))
    for name, source in sources.items():
        for count in (1, 3, len(reference) + 1):
            assert source.top(count) == ranked[:count], (name, count)


def test_to_aggregator_merges_the_parts_bit_for_bit(scenario_sources):
    _, reference, sources = scenario_sources
    for name, source in sources.items():
        assert source.to_aggregator().to_bytes() == reference.to_bytes(), name


def test_every_source_breaks_ties_by_ascending_key_as_topk_does(tmp_path):
    """``k001`` and then ``k000`` hold the same one hash, so their
    estimates tie; every source kind ranks ``k000`` first, and ``TopK``
    over a whole source answers the source's own ``top``. On 8 parts the
    two keys lie on parts 7 and 0; the windowed counter holds them as
    buckets 1 and 0 under the prefix ``k00``."""
    hashes = [0x9E3779B97F4A7C15]
    aggregator = DistinctCountAggregator(p=8)
    store = SketchStore.open(tmp_path / "store", p=8)
    sharded = ShardedStore.open(tmp_path / "cluster", shards=8, p=8)
    spill = SpilledGroupBy(tmp_path / "spill", p=8, partitions=8)
    counter = SlidingWindowDistinctCounter(window=2.0, buckets=2, p=8, store_prefix="k00")
    for bucket, key in ((1, b"k001"), (0, b"k000")):
        aggregator.fold(key, hashes)
        store.append_hashes(key, hashes)
        sharded.append_hashes(key, hashes)
        spill.write_segments([(key, hashes)])
        counter.add_hash(hashes[0], at=float(bucket))
    reader = SnapshotReader.open(tmp_path / "store")
    follower = FollowerStore.open(tmp_path / "replica")
    WalShipper(store.directory).sync(follower)
    readers = ClusterSource.open(tmp_path / "cluster", reader=True)
    sources = {
        "aggregator": aggregator, "store": store, "reader": reader,
        "follower": follower, "counter": counter, "sharded": sharded,
        "cluster": readers, "spill": spill,
    }
    try:
        for name, source in sources.items():
            estimates = source.estimates()
            assert estimates[b"k000"] == estimates[b"k001"], name
            assert [key for key, _ in source.top(1)] == [b"k000"], name
            for count in (1, 2):
                assert execute(TopK(Scan(), count), source).rows == tuple(source.top(count)), name
    finally:
        for closing in (readers, follower, reader, store, sharded, spill):
            closing.close()


#: ``k001`` and then ``k000`` on one part of three (``shard_of`` gives both
#: part 2), holding the same one hash: their estimates tie, and the part's
#: own ``top(1)`` answers ``k001``, the key it saw first.
TIED_IN_ONE_PART = (b"k001", b"k000")


def test_a_sharded_store_breaks_a_tie_inside_one_shard_by_ascending_key(tmp_path):
    with ShardedStore.open(tmp_path / "cluster", shards=3, p=8) as sharded:
        for key in TIED_IN_ONE_PART:
            sharded.append_hashes(key, [0x9E3779B97F4A7C15])
        assert [key for key, _ in sharded.top(1)] == [b"k000"]
        assert execute(TopK(Scan(), 1), sharded).rows == tuple(sharded.top(1))


def test_a_cluster_view_breaks_a_tie_inside_one_shard_by_ascending_key(tmp_path):
    with ShardedStore.open(tmp_path / "cluster", shards=3, p=8) as sharded:
        for key in TIED_IN_ONE_PART:
            sharded.append_hashes(key, [0x9E3779B97F4A7C15])
    view = ClusterSource.open(tmp_path / "cluster")
    try:
        assert [key for key, _ in view.top(1)] == [b"k000"]
        assert execute(TopK(Scan(), 1), view).rows == tuple(view.top(1))
    finally:
        view.close()


def test_a_spill_breaks_a_tie_inside_one_partition_by_ascending_key(tmp_path):
    with SpilledGroupBy(tmp_path / "spill", p=8, partitions=3) as spill:
        for key in TIED_IN_ONE_PART:
            spill.write_segments([(key, [0x9E3779B97F4A7C15])])
        assert [key for key, _ in spill.top(1)] == [b"k000"]
        assert execute(TopK(Scan(), 1), spill).rows == tuple(spill.top(1))


def test_a_spill_top_over_heavy_groups_builds_each_partition_once(tmp_path, partition_builds):
    """Partitions cut among light groups that tie far below the heavy
    top, so no partition is read again."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(29))
    with SpilledGroupBy(tmp_path / "spill", p=8, partitions=8) as spill:
        for heavy in range(10):
            spill.write_segments([(b"heavy%d" % heavy, rng.integers(0, 1 << 64, 200 + 50 * heavy, dtype=np.uint64))])
        spill.write_segments([(b"light%d" % light, [light]) for light in range(400)])
        reference = spill.to_aggregator()
        del partition_builds[:]
        top = spill.top(10)
    ranked = sorted(reference.estimates().items(), key=lambda kv: (-kv[1], kv[0]))
    assert top == ranked[:10]
    assert {key for key, _ in top} == {b"heavy%d" % heavy for heavy in range(10)}
    assert len(partition_builds) == 8


def test_an_all_ties_spill_top_builds_each_partition_once(tmp_path, partition_builds):
    """Every group holds the same one hash, so every partition's cut
    ties at the final value: each partition is still built once."""
    keys = [b"g%03d" % index for index in range(400)]
    with SpilledGroupBy(tmp_path / "spill", p=8, partitions=8) as spill:
        spill.write_segments([(key, [0x9E3779B97F4A7C15]) for key in keys])
        top = spill.top(10)
    assert [key for key, _ in top] == sorted(keys)[:10]
    assert len({value for _, value in top}) == 1
    assert len(partition_builds) == 8


def test_a_spill_top_query_never_reads_every_estimate(tmp_path, monkeypatch):
    """``top N`` asks the spill's own ``top``, one partition at a time."""
    with SpilledGroupBy(tmp_path / "spill", p=8, partitions=4) as spill:
        spill.write_segments([(b"g%d" % index, list(range(index + 1))) for index in range(40)])
        expected = spill.top(3)

        def refuse(self):
            raise AssertionError("TopK over a spill read every estimate")

        monkeypatch.setattr(SpilledGroupBy, "estimates", refuse)
        assert query(spill, "top 3").rows == tuple(expected)
