"""Point reads of estimates, one named rule per test, on every source kind.

``Estimate`` and ``TopK`` over an explicit key filter read each key's
kept estimate through ``group_estimate`` and build no sketch. Every
source kind (the aggregator, the store, a reader, a follower, a spill, a
sharded store and a cluster reader view) takes the same writes; a write
to a store or a cluster reaches its reader, follower or view through a
refresh or a WAL shipment, as it would in a deployment.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.core.sparse import SparseExaLogLog
from repro.estimation.batch import rank
from repro.query import Estimate, Filter, Scan, TopK, as_source, execute
from repro.store import FollowerStore, SketchStore, SnapshotReader, SpilledGroupBy, WalShipper

CONFIG = {"t": 2, "d": 20, "p": 8}

#: Seeded groups and their hash counts: token-mode groups and dense ones
#: (break-even is 224 tokens at p = 8), and two groups holding the same
#: hashes, so their estimates tie.
SEEDED = {b"a": 3, b"b": 40, b"c": 300, b"d": 5000, b"tie1": 7, b"tie2": 7}

UNSEEN = b"never-seen"

KINDS = ("aggregator", "store", "reader", "follower", "spill", "sharded", "cluster")

#: The kinds that keep a group's estimate between reads and can hold a
#: group created empty. A spill builds the partition of each read afresh,
#: and writes no record for an empty segment.
KEEPING = tuple(kind for kind in KINDS if kind != "spill")


def hashes_for(key: bytes, count: int, salt: int = 0) -> np.ndarray:
    """``count`` pseudo-random hashes, a function of the key and ``salt``."""
    seed = 0 if key.startswith(b"tie") else int.from_bytes(key[:8].ljust(8, b"\0"), "little")
    rng = np.random.Generator(np.random.PCG64([seed, salt]))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


@dataclass
class Layer:
    """One source kind, and the writer behind it."""

    source: object
    fold: Callable[[bytes, np.ndarray], None]
    """Write hashes into one group and make the source see them."""
    create_empty: "Callable[[bytes], None] | None"
    """Create a group that holds nothing (``None`` on a spill)."""
    state: Callable[[], DistinctCountAggregator]
    """The source's groups as one aggregator."""
    close: Callable[[], None]


def _store_layer(kind: str, directory) -> Layer:
    store = SketchStore.open(directory / "store", **CONFIG)
    if kind == "store":
        source, publish, close = store, lambda: None, []
    elif kind == "reader":
        source = SnapshotReader.open(directory / "store")
        publish, close = source.refresh, [source.close]
    else:
        source = FollowerStore.open(directory / "follower")
        shipper = WalShipper(directory / "store")
        publish, close = (lambda: shipper.sync(source)), [source.close]

    def fold(key, hashes):
        store.append_hashes(key, hashes)
        publish()

    def create_empty(key):
        store.merge_sketch(key, SparseExaLogLog(**CONFIG))
        publish()

    def closing():
        for step in close:
            step()
        store.close()

    return Layer(source, fold, create_empty, lambda: source.aggregator, closing)


def _cluster_layer(kind: str, directory) -> Layer:
    sharded = ShardedStore.open(directory / "cluster", shards=3, **CONFIG)
    if kind == "sharded":
        source, publish, close = sharded, lambda: None, []
    else:
        source = ClusterSource.open(directory / "cluster", reader=True)
        publish, close = source.refresh, [source.close]

    def fold(key, hashes):
        sharded.append_hashes(key, hashes)
        publish()

    def create_empty(key):
        sharded.merge_sketch(key, SparseExaLogLog(**CONFIG))
        publish()

    def closing():
        for step in close:
            step()
        sharded.close()

    return Layer(source, fold, create_empty, source.to_aggregator, closing)


def open_layer(kind: str, directory) -> Layer:
    """A ``kind`` source holding :data:`SEEDED`, every estimate read once."""
    if kind == "aggregator":
        aggregator = DistinctCountAggregator(**CONFIG)
        empty = np.zeros(0, dtype=np.uint64)
        layer = Layer(
            aggregator,
            aggregator.fold,
            lambda key: aggregator.fold(key, empty),
            lambda: aggregator,
            lambda: None,
        )
    elif kind == "spill":
        spill = SpilledGroupBy(directory / "spill", partitions=4, **CONFIG)
        layer = Layer(
            spill,
            lambda key, hashes: spill.write_segments([(key, hashes)]),
            None,
            spill.to_aggregator,
            spill.close,
        )
    elif kind in ("sharded", "cluster"):
        layer = _cluster_layer(kind, directory)
    else:
        layer = _store_layer(kind, directory)
    for key, count in SEEDED.items():
        layer.fold(key, hashes_for(key, count))
    layer.source.estimates()
    return layer


def _opened(request, tmp_path):
    layer = open_layer(request.param, tmp_path)
    yield layer
    layer.close()


layer = pytest.fixture(params=KINDS)(_opened)
keeping_layer = pytest.fixture(params=KEEPING)(_opened)


def point(*keys) -> Estimate:
    return Estimate(Filter(Scan(), keys=keys))


def fresh_rows(layer: Layer, plan) -> tuple:
    """``plan``'s rows on a ``from_bytes`` copy of the source's groups,
    which keeps no estimate: every row is solved afresh."""
    copy = DistinctCountAggregator.from_bytes(layer.state().to_bytes())
    return execute(plan, copy).rows


def test_an_unseen_key_yields_no_row(layer):
    assert execute(point(UNSEEN), layer.source).rows == ()
    assert execute(TopK(Filter(Scan(), keys=(UNSEEN,)), 3), layer.source).rows == ()
    assert layer.source.group_estimate(UNSEEN) is None


def test_a_group_created_empty_yields_zero(keeping_layer):
    keeping_layer.create_empty(b"empty")
    assert execute(point(b"empty"), keeping_layer.source).rows == ((b"empty", 0.0),)
    assert keeping_layer.source.estimate(b"empty") == 0.0


def test_repeated_keys_yield_one_row_each_sorted_by_key(layer):
    rows = execute(point(b"c", b"a", UNSEEN, b"c", b"a", b"tie2"), layer.source).rows
    assert [key for key, _ in rows] == [b"a", b"c", b"tie2"]
    for key, value in rows:
        assert execute(point(key), layer.source).rows == ((key, value),)


def test_a_point_read_answers_what_the_sketch_path_answers(layer):
    keys = (b"d", b"a", UNSEEN, b"tie1", b"b", b"a")
    sketch_path = Estimate(Filter(Scan(), predicate=lambda key: key in keys))
    assert execute(point(*keys), layer.source).rows == execute(sketch_path, layer.source).rows


@pytest.mark.parametrize("key", [b"a", b"c", b"d"])
def test_a_point_read_after_a_write_to_its_group_equals_a_fresh_solve(layer, key):
    before = execute(point(key), layer.source).rows
    layer.fold(key, hashes_for(key, 50, salt=1))
    after = execute(point(key), layer.source).rows
    assert after != before
    assert after == fresh_rows(layer, point(key))


def test_a_point_read_after_a_write_to_another_group_solves_nothing(
    keeping_layer, solved_rows
):
    keeping_layer.fold(b"b", hashes_for(b"b", 50, salt=1))
    keeping_layer.fold(b"new", hashes_for(b"new", 5))
    del solved_rows[:]
    rows = execute(point(b"a", b"c", b"d"), keeping_layer.source).rows
    assert solved_rows == []
    execute(point(b"b", b"new"), keeping_layer.source)
    assert sum(solved_rows) == 2  # the two written groups, and only they
    assert rows == fresh_rows(keeping_layer, point(b"a", b"c", b"d"))


def test_a_spill_point_plan_builds_one_partition(tmp_path, partition_builds):
    layer = open_layer("spill", tmp_path)
    try:
        for plan in (point(b"c"), point(UNSEEN), TopK(Filter(Scan(), keys=(b"d",)), 1)):
            del partition_builds[:]
            execute(plan, layer.source)
            assert len(partition_builds) == 1, plan
    finally:
        layer.close()


@pytest.mark.parametrize("count", [1, 2, 3, 10])
def test_topk_over_a_key_filter_ranks_the_estimate_rows(layer, count):
    keys = (b"tie2", b"d", b"a", UNSEEN, b"tie1", b"c", b"a")
    estimates = execute(point(*keys), layer.source).rows
    top = execute(TopK(Filter(Scan(), keys=keys), count), layer.source)
    assert top.kind == "top"
    assert top.rows == tuple(rank(estimates, count))


MEMBERS = ("config", "groups", "group_estimate", "group_sketch", "estimates", "top")


def test_as_source_accepts_an_object_with_the_six_members():
    source = types.SimpleNamespace(**dict.fromkeys(MEMBERS))
    assert as_source(source) is source


@pytest.mark.parametrize("missing", MEMBERS)
def test_as_source_rejects_an_object_lacking_one_member(missing):
    source = types.SimpleNamespace(**dict.fromkeys(set(MEMBERS) - {missing}))
    with pytest.raises(TypeError, match=f"lacks {missing}$"):
        as_source(source)
