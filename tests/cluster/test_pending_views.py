"""Read-only views of a cluster whose rebalance a dead writer left pending.

One table: every rebalance stage × {3 → 2, 2 → 3} × {store, reader}
members. A 30-group cluster takes 50 rows per group, its rebalance dies
after the stage, and a read-only :class:`ClusterSource` then answers
``groups()``, ``group_sketch``, ``estimate``, ``estimates()``, ``top(k)``
and the CLI ``info`` group count exactly as an aggregator fed the same
rows.
"""

import re

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore, SimulatedCrash, read_journal
from repro.store.__main__ import main

STAGES = ("journal", "begin", "grow", "copy", "drop", "commit", "meta")
GROUPS = 30
ROWS = 50


def _rows():
    rng = np.random.Generator(np.random.PCG64(26))
    groups = np.repeat(np.arange(GROUPS, dtype=np.int64), ROWS)
    return groups, rng.integers(0, 1 << 40, size=len(groups), dtype=np.int64)


def _crash_rebalance(root, shards: int, new_shards: int, stage: str) -> None:
    cluster = ShardedStore.open(root, shards=shards, p=8)
    cluster.add_batch(*_rows())
    cluster._crash_after = stage
    with pytest.raises(SimulatedCrash):
        cluster.rebalance(new_shards)
    cluster.close()


@pytest.mark.parametrize("members", ["store", "reader"])
@pytest.mark.parametrize("shards,new_shards", [(3, 2), (2, 3)])
@pytest.mark.parametrize("stage", STAGES)
def test_a_pending_rebalance_reads_like_the_completed_one(
    stage, shards, new_shards, members, tmp_path, capsys
):
    root = tmp_path / "cluster"
    _crash_rebalance(root, shards, new_shards, stage)
    reference = DistinctCountAggregator(p=8).add_batch(*_rows())
    expected = reference.estimates()
    with ClusterSource.open(root, reader=members == "reader") as view:
        assert sorted(view.groups()) == sorted(reference.groups())
        for key in reference.groups():
            assert view.group_sketch(key).to_bytes() == reference.group_sketch(key).to_bytes()
            assert view.estimate(key) == expected[key]
            assert key in view
        assert view.estimate(GROUPS) == 0.0  # never written
        assert view.estimates() == expected
        ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
        assert view.top(7) == ranked[:7]
        assert len(view) == GROUPS
    capsys.readouterr()
    assert main(["info", str(root)]) == 0
    assert re.search(rf"epoch \d+, {GROUPS} groups\)", capsys.readouterr().out)
    # Reading changed nothing: the next writer open still completes it.
    assert read_journal(root) is not None
