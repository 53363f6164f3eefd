"""Randomized cluster fault injection: every recovery converges bit-identically.

Three failure families, each driven by the seeded scenarios of the
invariant harness so a CI failure reproduces from the test id alone:

* a shard's WAL shipper dies mid-catch-up (replica left half-applied);
* a crash tears the final WAL record on one shard;
* a crash lands inside a rebalance — before the cutover fence, between
  the fences, or after the commit point.

The acceptance bar is the same everywhere: after recovery (reopen,
re-sync, or journal replay) the cluster's reassembled aggregator must be
*byte-identical* to the scalar reference over the same stream, and its
estimates float-identical. Not "close" — identical; exact mergeability
(register-max, idempotent) is what makes that a fair demand.
"""

import numpy as np
import pytest

from repro.cluster import ShardedStore, SimulatedCrash, read_journal
from repro.storage.serialization import write_lsn_record
from repro.store import RECORD_HASHES, FollowerStore, WalShipper, wal_path
from tests.invariants.harness import (
    OP_COMPACT,
    OP_HASHES,
    OP_SKETCH,
    _merge_sketch,
    assert_identical,
    build_scalar,
    random_scenario,
    rounds,
)

#: Every stage the rebalance state machine can die after: journal written,
#: begin fences appended, destination shards created, sketches copied,
#: moved groups dropped, commit fences appended, meta flipped (committed,
#: cleanup pending).
REBALANCE_STAGES = ("journal", "begin", "grow", "copy", "drop", "commit", "meta")


def _run_schedule(cluster: ShardedStore, scenario, steps) -> None:
    for step in steps:
        if step.op == OP_HASHES:
            cluster.append_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            cluster.merge_sketch(step.group, _merge_sketch(scenario, step))
        elif step.op == OP_COMPACT:
            cluster.compact()


def _build_cluster(scenario, directory, shards):
    t, d, p, sparse, seed = scenario.config
    cluster = ShardedStore.open(
        directory, shards=shards, t=t, d=d, p=p, sparse=sparse, seed=seed
    )
    _run_schedule(cluster, scenario, scenario.steps)
    return cluster


@pytest.mark.parametrize("seed", rounds(3))
def test_shipper_killed_mid_catchup_converges(seed, tmp_path):
    """A replica left half-applied catches up to byte-identical state.

    The shipper applies records one by one; killing the follower after K
    applied records models a replication process dying mid-catch-up. A
    fresh shipper against the reopened follower must land on exactly the
    leader shard's registers — idempotent-by-LSN application means the
    partial prefix neither repeats nor gaps.
    """
    scenario = random_scenario(7000 + seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    cluster = _build_cluster(scenario, tmp_path / "cluster", shards=3)
    # Pick the busiest shard so there is a catch-up to interrupt.
    leader = max(cluster.shard_stores, key=lambda shard: shard.wal_records)
    follower = FollowerStore.open(tmp_path / "replica")
    kill_after = int(rng.integers(1, max(2, leader.wal_records)))
    applied = 0
    original = follower.apply_record

    def dying_apply(lsn, kind, key, payload):
        nonlocal applied
        if applied >= kill_after:
            raise SimulatedCrash(f"shipper killed after {applied} records")
        applied += 1
        return original(lsn, kind, key, payload)

    follower.apply_record = dying_apply
    try:
        WalShipper(leader.directory).sync(follower)
    except SimulatedCrash:
        pass
    follower.close()
    # Recovery: reopen the half-applied replica and ship the rest.
    with FollowerStore.open(tmp_path / "replica") as recovered:
        WalShipper(leader.directory).sync(recovered)
        assert recovered.applied_lsn == leader.durable_lsn
        assert_identical(
            leader.aggregator, recovered.aggregator, "replica after killed shipper"
        )
    cluster.close()


@pytest.mark.parametrize("seed", rounds(3))
def test_torn_wal_tail_on_one_shard_converges(seed, tmp_path):
    """A torn final record on one shard truncates away; the rest survives.

    The tear is a half-written frame (crash mid-``write``): recovery must
    keep every complete record, drop the torn suffix, and leave a WAL the
    shard can keep appending to — ending bit-identical to the reference
    that never saw the torn bytes.
    """
    scenario = random_scenario(8000 + seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    reference = build_scalar(scenario)
    cluster = _build_cluster(scenario, tmp_path / "cluster", shards=4)
    victim = int(rng.integers(cluster.shards))
    victim_directory = cluster.shard_stores[victim].directory
    victim_lsn = cluster.shard_stores[victim].durable_lsn
    victim_generation = cluster.shard_stores[victim].generation
    cluster.close()
    # A syntactically valid record, torn mid-frame before it is durable.
    frame = bytearray()
    write_lsn_record(
        frame,
        victim_lsn + 1,
        RECORD_HASHES,
        b"torn-group",
        rng.integers(0, 1 << 64, size=8, dtype=np.uint64).tobytes(),
    )
    cut = int(rng.integers(1, len(frame)))
    with open(wal_path(victim_directory, victim_generation), "ab") as handle:
        handle.write(bytes(frame[:cut]))
    recovered = ShardedStore.open(tmp_path / "cluster")
    assert recovered.shard_stores[victim].durable_lsn == victim_lsn
    assert_identical(reference, recovered.to_aggregator(), "cluster after torn tail")
    # The truncated WAL is live again: appending works and changes state.
    recovered.append_hashes(
        "post-recovery", rng.integers(0, 1 << 64, size=20, dtype=np.uint64)
    )
    assert "post-recovery" in recovered
    recovered.close()


@pytest.mark.parametrize("stage", REBALANCE_STAGES)
@pytest.mark.parametrize("seed", rounds(2))
def test_crash_during_rebalance_converges(seed, stage, tmp_path):
    """A crash at any rebalance stage — before or after the cutover fences
    and on either side of the commit point — recovers to the reference.

    The first half of the schedule lands under the old fan-out, the
    process dies mid-rebalance at ``stage``, a fresh open replays the
    journal forward, and the second half lands under the new fan-out.
    The final registers and estimates must equal a single scalar fold of
    the whole stream.
    """
    scenario = random_scenario(9000 + seed)
    reference = build_scalar(scenario)
    t, d, p, sparse, config_seed = scenario.config
    root = tmp_path / "cluster"
    cluster = ShardedStore.open(
        root, shards=3, t=t, d=d, p=p, sparse=sparse, seed=config_seed
    )
    pivot = len(scenario.steps) // 2
    _run_schedule(cluster, scenario, scenario.steps[:pivot])
    cluster._crash_after = stage
    with pytest.raises(SimulatedCrash):
        cluster.rebalance(5)
    cluster.close()
    recovered = ShardedStore.open(root)
    assert recovered.shards == 5
    assert recovered.epoch == 1
    assert read_journal(root) is None, "recovery must clear the journal"
    _run_schedule(recovered, scenario, scenario.steps[pivot:])
    final = recovered.to_aggregator()
    assert_identical(reference, final, f"cluster after crash at {stage!r}")
    assert final.estimates() == reference.estimates()
    recovered.close()


@pytest.mark.parametrize("seed", rounds(2))
def test_double_crash_during_rebalance_converges(seed, tmp_path):
    """Crashing *again* during recovery still converges (idempotent steps).

    First crash mid-copy, then the recovering open itself dies at the
    commit fence; the third open finishes the job. Every rebalance step
    re-runs safely (merges are register-max, drops are pops), so repeated
    partial recoveries cannot diverge.
    """
    scenario = random_scenario(9500 + seed)
    reference = build_scalar(scenario)
    t, d, p, sparse, config_seed = scenario.config
    root = tmp_path / "cluster"
    cluster = ShardedStore.open(
        root, shards=2, t=t, d=d, p=p, sparse=sparse, seed=config_seed
    )
    _run_schedule(cluster, scenario, scenario.steps)
    cluster._crash_after = "copy"
    with pytest.raises(SimulatedCrash):
        cluster.rebalance(4)
    cluster.close()
    ShardedStore._crash_after = "commit"  # the *recovering* open dies too
    try:
        with pytest.raises(SimulatedCrash):
            ShardedStore.open(root)
    finally:
        ShardedStore._crash_after = None
    recovered = ShardedStore.open(root)
    assert recovered.shards == 4
    assert read_journal(root) is None
    assert_identical(
        reference, recovered.to_aggregator(), "cluster after double crash"
    )
    recovered.close()
