"""Unit tests for ``repro.cluster``: routing, scatter-gather, rebalance, CLI.

The randomized bit-identity and fault coverage live in
``tests/invariants`` and ``tests/cluster/test_faults.py``; this file
pins the deterministic contracts — metadata round-trips, validation
errors, the query-plane integration, WAL semantics of the new record
kinds, and the ``python -m repro.store cluster`` surface.
"""

import gc
import warnings

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.cluster import (
    CUTOVER_BEGIN,
    CUTOVER_COMMIT,
    ClusterMeta,
    ClusterSource,
    ShardedStore,
    decode_cutover,
    encode_cutover,
    read_journal,
    read_meta,
    shard_path,
    write_journal,
    write_meta,
)
from repro.parallel.shard import shard_of
from repro.storage.serialization import SerializationError
from repro.store import FollowerStore, SketchStore, SnapshotReader, WalShipper
from repro.store.__main__ import main


def _fill(target, groups=8, items=40):
    for index in range(groups):
        target.append(
            f"g{index}", [f"g{index}-item-{j}" for j in range(items)]
        )
    return target


# -- metadata ------------------------------------------------------------------


def test_meta_round_trip(tmp_path):
    meta = ClusterMeta(shards=5, epoch=3, config=(2, 20, 8, True, 7))
    write_meta(tmp_path, meta)
    assert read_meta(tmp_path) == meta


def test_read_meta_missing_returns_none(tmp_path):
    assert read_meta(tmp_path) is None


def test_read_meta_rejects_garbage(tmp_path):
    (tmp_path / "cluster.json").write_text("{not json")
    with pytest.raises(SerializationError, match="cluster.json"):
        read_meta(tmp_path)


def test_cutover_round_trip():
    payload = encode_cutover(4, 3, 5, CUTOVER_BEGIN)
    assert decode_cutover(payload) == (4, 3, 5, CUTOVER_BEGIN)
    payload = encode_cutover(9, 6, 2, CUTOVER_COMMIT)
    assert decode_cutover(payload) == (9, 6, 2, CUTOVER_COMMIT)


def test_cutover_rejects_trailing_bytes_and_bad_phase():
    with pytest.raises(SerializationError, match="trailing"):
        decode_cutover(encode_cutover(1, 2, 3, CUTOVER_BEGIN) + b"\x00")
    with pytest.raises(ValueError, match="phase"):
        encode_cutover(1, 2, 3, 9)


# -- open/validation -----------------------------------------------------------


def test_open_requires_shards_for_new_cluster(tmp_path):
    with pytest.raises(ValueError, match="shards=N"):
        ShardedStore.open(tmp_path / "c")


def test_open_validates_shard_count_and_config(tmp_path):
    ShardedStore.open(tmp_path / "c", shards=3, p=8).close()
    with pytest.raises(ValueError, match="3 shards"):
        ShardedStore.open(tmp_path / "c", shards=4)
    with pytest.raises(ValueError, match="configuration"):
        ShardedStore.open(tmp_path / "c", p=10)
    with ShardedStore.open(tmp_path / "c", p=8) as cluster:  # matching is fine
        assert cluster.shards == 3


def test_cluster_source_rejects_mixed_configs(tmp_path):
    a = SketchStore.open(tmp_path / "a", p=8)
    b = SketchStore.open(tmp_path / "b", p=10)
    try:
        with pytest.raises(ValueError, match="mergeable"):
            ClusterSource([a, b])
        with pytest.raises(ValueError, match="at least one"):
            ClusterSource([])
    finally:
        a.close()
        b.close()


def test_cluster_source_open_requires_cluster_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="cluster.json"):
        ClusterSource.open(tmp_path)


# -- routing & scatter-gather --------------------------------------------------


def test_groups_route_to_exactly_one_shard(tmp_path):
    with _fill(ShardedStore.open(tmp_path / "c", shards=4, p=8)) as cluster:
        for key in cluster.groups():
            owner = shard_of(key, cluster.shards)
            holders = [
                index
                for index, shard in enumerate(cluster.shard_stores)
                if key in shard
            ]
            assert holders == [owner]


def test_scatter_gather_matches_single_store(tmp_path):
    cluster = _fill(ShardedStore.open(tmp_path / "c", shards=4, p=8))
    single = _fill(SketchStore.open(tmp_path / "single", p=8))
    assert sorted(cluster.groups()) == sorted(single.groups())
    assert cluster.estimates() == single.estimates()
    assert cluster.top(3) == single.top(3)
    assert cluster.estimate("g1") == single.estimate("g1")
    assert len(cluster) == len(single)
    assert "g2" in cluster and "missing" not in cluster
    assert (
        cluster.group_sketch("g3").to_bytes() == single.group_sketch("g3").to_bytes()
    )
    cluster.close()
    single.close()


def test_cluster_source_reader_members_match_store_members(tmp_path):
    with _fill(ShardedStore.open(tmp_path / "c", shards=3, p=8)) as cluster:
        expected = cluster.estimates()
    with ClusterSource.open(tmp_path / "c") as stores:
        assert stores.estimates() == expected
        assert {type(s).__name__ for s in stores.shard_sources} == {"SketchStore"}
    with ClusterSource.open(tmp_path / "c", reader=True) as readers:
        assert readers.estimates() == expected
        assert {type(s).__name__ for s in readers.shard_sources} == {"SnapshotReader"}


# -- WAL record kinds ----------------------------------------------------------


def test_drop_group_survives_recovery_and_reader(tmp_path):
    store = _fill(SketchStore.open(tmp_path / "s", p=8), groups=4)
    store.drop_group("g1")
    assert "g1" not in store and len(store) == 3
    store.close()
    with SketchStore.open(tmp_path / "s") as recovered:  # WAL replay sees the drop
        assert "g1" not in recovered and len(recovered) == 3
    with SnapshotReader.open(tmp_path / "s") as reader:  # tail replay too
        assert len(reader) == 3
        assert reader.group_sketch(b"g1") is None


def test_drop_and_cutover_ship_to_followers(tmp_path):
    store = _fill(SketchStore.open(tmp_path / "s", p=8), groups=4)
    store.drop_group("g0")
    store.append_cutover(encode_cutover(1, 2, 3, CUTOVER_BEGIN))
    with FollowerStore.open(tmp_path / "f") as follower:
        WalShipper(tmp_path / "s").sync(follower)
        assert follower.applied_lsn == store.durable_lsn
        assert follower.aggregator.to_bytes() == store.aggregator.to_bytes()
    store.close()


def test_drop_record_rejects_payload(tmp_path):
    from repro.store.sketchstore import check_wal_record

    with pytest.raises(SerializationError, match="payload"):
        check_wal_record(0x03, b"junk")


def test_rebalance_writes_cutover_fences(tmp_path):
    """Old shards fence BEGIN + COMMIT; shards born mid-rebalance COMMIT only."""
    from repro.storage.serialization import read_record_from
    from repro.store import RECORD_CUTOVER, wal_path
    from repro.store.sketchstore import _FILE_HEADER_BYTES

    cluster = _fill(ShardedStore.open(tmp_path / "c", shards=2, p=8))
    cluster.rebalance(4)
    for index, shard in enumerate(cluster.shard_stores):
        phases = []
        with open(wal_path(shard.directory, shard.generation), "rb") as handle:
            handle.read(_FILE_HEADER_BYTES)
            while True:
                record = read_record_from(handle)
                if record is None:
                    break
                lsn, kind, key, payload = record
                if kind == RECORD_CUTOVER:
                    epoch, from_shards, to_shards, phase = decode_cutover(payload)
                    assert (epoch, from_shards, to_shards) == (1, 2, 4)
                    phases.append(phase)
        if index < 2:
            assert phases == [CUTOVER_BEGIN, CUTOVER_COMMIT], f"shard {index}"
        else:
            assert phases == [CUTOVER_COMMIT], f"shard {index}"
    cluster.close()


def test_rebalance_rejects_noop_and_bad_counts(tmp_path):
    with ShardedStore.open(tmp_path / "c", shards=2, p=8) as cluster:
        with pytest.raises(ValueError, match="already has"):
            cluster.rebalance(2)
        with pytest.raises(ValueError, match=">= 1"):
            cluster.rebalance(0)


def test_shrink_removes_drained_directories(tmp_path):
    cluster = _fill(ShardedStore.open(tmp_path / "c", shards=5, p=8))
    single = _fill(SketchStore.open(tmp_path / "single", p=8))
    cluster.rebalance(2)
    assert cluster.shards == 2
    assert not shard_path(tmp_path / "c", 2).exists()
    assert read_journal(tmp_path / "c") is None
    assert cluster.to_aggregator().to_bytes() == single.aggregator.to_bytes()
    cluster.close()
    single.close()


def test_replicas_chain_through_rebalance(tmp_path):
    """Per-shard followers stay consistent across drop/cutover records."""
    cluster = _fill(ShardedStore.open(tmp_path / "c", shards=2, p=8))
    cluster.sync_replicas()
    cluster.rebalance(3)
    results = cluster.sync_replicas()
    assert len(results) == 3
    for shard, result in zip(cluster.shard_stores, results):
        with FollowerStore.open(
            tmp_path / "c" / f"replica-{shard.directory.name[-4:]}"
        ) as follower:
            assert follower.aggregator.to_bytes() == shard.aggregator.to_bytes()
    cluster.close()


# -- query plane ---------------------------------------------------------------


def test_query_plane_over_cluster(tmp_path):
    """The planner/executor treat a cluster as just another source."""
    from repro.query import Estimate, Filter, Scan, TopK, execute
    from repro.query.planner import access_path

    cluster = _fill(ShardedStore.open(tmp_path / "c", shards=3, p=8))
    single = _fill(SketchStore.open(tmp_path / "single", p=8))
    for plan in (
        Estimate(Scan()),
        TopK(Scan(), 3),
        Estimate(Filter(Scan(), keys=(b"g0", b"g5"))),
        TopK(Filter(Scan(), prefix="g"), 2),
    ):
        assert execute(plan, cluster).rows == execute(plan, single).rows
    # An explicit key filter goes selective: one routed point read per key.
    path = access_path(cluster, Filter(Scan(), keys=(b"g0",)))
    assert path.kind == "selective"
    cluster.close()
    single.close()


def test_planner_describes_cluster(tmp_path):
    from repro.query import Estimate, Scan, explain

    with _fill(ShardedStore.open(tmp_path / "c", shards=3, p=8)) as cluster:
        lines = explain(Estimate(Scan()), {"default": cluster})
    assert any("ShardedStore[3 shards]" in line for line in lines)


def test_reader_backed_cluster_selective_path(tmp_path):
    """Reader members answer point reads from their views: key filters
    on a reader-backed cluster plan selective."""
    from repro.query import Estimate, Filter, Scan, access_path, execute

    plan = Estimate(Filter(Scan(), keys=(b"g0", b"g5")))
    with _fill(ShardedStore.open(tmp_path / "c", shards=2, p=8)) as cluster:
        expected = execute(plan, cluster).rows
    with ClusterSource.open(tmp_path / "c", reader=True) as readers:
        assert access_path(readers, plan.child).kind == "selective"
        assert execute(plan, readers).rows == expected


# -- CLI -----------------------------------------------------------------------


def test_cli_cluster_lifecycle(tmp_path, capsys):
    root = str(tmp_path / "c")
    assert main(["cluster", "init", root, "--shards", "4", "--p", "10"]) == 0
    assert (
        main(["ingest", root, "--group", "demo", "--count", "20000"]) == 0
    )
    assert (
        main(
            [
                "query", root, "estimate 'demo'",
                "--expect", "20000", "--tolerance", "0.2",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "query", root, "estimate 'demo'",
                "--reader", "--expect", "999999", "--tolerance", "0.01",
            ]
        )
        == 1
    )
    assert main(["cluster", "rebalance", root, "--shards", "6"]) == 0
    assert (
        main(
            [
                "query", root, "estimate 'demo'",
                "--expect", "20000", "--tolerance", "0.2",
            ]
        )
        == 0
    )
    assert main(["info", root]) == 0
    output = capsys.readouterr().out
    assert "rebalanced 4 -> 6 shards" in output
    assert "skew:" in output


def test_cli_info_keeps_an_interrupted_rebalance_pending(tmp_path, capsys):
    """``info`` reads: it names a pending rebalance and leaves it to a writer."""
    root = tmp_path / "c"
    _fill(ShardedStore.open(root, shards=2)).close()
    write_journal(root, 1, 2, 3)
    capsys.readouterr()
    assert main(["info", str(root)]) == 0
    output = capsys.readouterr().out
    assert "rebalance: 2 -> 3 shards (epoch 1) pending" in output
    assert "skew:" in output
    assert read_journal(root) == (1, 2, 3)
    assert read_meta(root).shards == 2
    assert not shard_path(root, 2).exists()


def test_a_failed_open_releases_the_shards_it_opened(tmp_path):
    """An open that raises leaves no shard WAL open behind it."""
    root = tmp_path / "c"
    _fill(ShardedStore.open(root, shards=2)).close()
    write_journal(root, 1, 3, 4)  # expects 3 shards; the cluster has 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SerializationError, match="expects 3 shards"):
            ShardedStore.open(root)
        gc.collect()
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaked == []


def test_cli_cluster_ingest_needs_items_or_count(tmp_path):
    root = str(tmp_path / "c")
    assert main(["cluster", "init", root, "--shards", "2"]) == 0
    assert main(["ingest", root]) == 2


def test_cli_cluster_query_explain_names_shards(tmp_path, capsys):
    root = str(tmp_path / "c")
    main(["cluster", "init", root, "--shards", "3"])
    main(["ingest", root, "--group", "g", "--items", "a", "b"])
    assert main(["query", root, "estimate all", "--explain"]) == 0
    assert "ClusterSource[3 shards]" in capsys.readouterr().out


# -- metrics -------------------------------------------------------------------


def test_cluster_metrics_collect(tmp_path):
    from repro.obs import metrics

    with metrics.instrumented():
        cluster = _fill(ShardedStore.open(tmp_path / "c", shards=2, p=8))
        cluster.rebalance(3)
        cluster.status()
        cluster.close()
        rebalances = metrics.REGISTRY.get("cluster.rebalances")
        moved = metrics.REGISTRY.get("cluster.rebalance_moved_groups")
        skew = metrics.REGISTRY.get("cluster.skew")
        routed = metrics.REGISTRY.get("cluster.append_records", {"shard": "0"})
        assert rebalances is not None and rebalances.value == 1
        assert moved is not None and moved.value > 0
        assert skew is not None and skew.value >= 1.0
        assert routed is not None and routed.value > 0
