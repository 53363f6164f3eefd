"""One read surface for hash-partitioned sources, one rule per test.

A 3-shard :class:`~repro.cluster.ShardedStore`, a reader-backed
:class:`~repro.cluster.ClusterSource` over it and a 4-partition
:class:`~repro.store.SpilledGroupBy` take the same hash stream as an
in-memory aggregator. Every read they share through
:class:`~repro.query.source.PartitionedSource` must answer what the
aggregator answers, for seen and unseen keys alike.
"""

import pytest

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.hashing import to_bytes
from repro.query import Scan, TopK, execute
from repro.store import SpilledGroupBy
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


def test_top_breaks_ties_by_ascending_key_across_parts(tmp_path):
    """``k000`` (part 7 of 8) and ``k001`` (part 0) hold the same one hash,
    so their estimates tie; every source ranks ``k000`` first, as the
    executor's ``TopK`` does."""
    hashes = [0x9E3779B97F4A7C15]
    sharded = ShardedStore.open(tmp_path / "cluster", shards=8, p=8)
    spill = SpilledGroupBy(tmp_path / "spill", p=8, partitions=8)
    for key in (b"k001", b"k000"):
        sharded.append_hashes(key, hashes)
        spill.write_segments([(key, hashes)])
    readers = ClusterSource.open(tmp_path / "cluster", reader=True)
    try:
        for name, source in {"sharded": sharded, "cluster": readers, "spill": spill}.items():
            assert source.estimate(b"k000") == source.estimate(b"k001"), name
            assert [key for key, _ in source.top(1)] == [b"k000"], name
            assert execute(TopK(Scan(), 1), source).rows == tuple(source.top(1)), name
    finally:
        readers.close()
        sharded.close()
        spill.close()
