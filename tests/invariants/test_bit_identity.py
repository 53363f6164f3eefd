"""Cross-layer bit-identity over randomized scenarios (one seed = one id).

Replaces the per-PR equivalence boilerplate: every ingest layer builds
the same seeded workload and must land on byte-identical state; every
query layer must produce float-identical estimates.
"""

import numpy as np
import pytest

from tests.invariants.harness import (
    assert_identical,
    build_bulk,
    build_follower,
    build_group_commit_cluster,
    build_instrumented,
    build_parallel,
    build_rebalanced_cluster,
    build_scalar,
    build_segmented,
    build_sharded_cluster,
    build_store,
    build_windowed,
    fan_out_scenario,
    random_scenario,
    register_bytes,
    rounds,
    stacked_scenario,
    windowed_scenario,
)


@pytest.fixture(scope="module", params=rounds())
def scenario(request):
    return random_scenario(request.param)


@pytest.fixture(scope="module")
def reference(scenario):
    return build_scalar(scenario)


def test_bulk_matches_scalar(scenario, reference):
    assert_identical(reference, build_bulk(scenario), "add_hashes vs add_hash")


def test_segmented_matches_scalar(scenario, reference):
    assert_identical(reference, build_segmented(scenario), "fold_segments runs vs add_hash")


@pytest.mark.parametrize("path", ["per-item", "scalar"])
def test_windowed_matches_scalar(scenario, path):
    """Sliding-window buckets fold like groups, with timestamps in any order."""
    dense = windowed_scenario(scenario)
    windowed = build_windowed(dense, path)
    assert_identical(build_scalar(dense), windowed, f"windowed {path} vs add_hash")


def test_store_replay_matches_scalar(scenario, reference, tmp_path):
    recovered = build_store(scenario, tmp_path / "store")
    assert_identical(reference, recovered, "store-replayed vs add_hash")


def test_follower_matches_scalar(scenario, reference, tmp_path):
    replica = build_follower(scenario, tmp_path / "leader", tmp_path / "replica")
    assert_identical(reference, replica, "follower-replicated vs add_hash")


def test_sharded_cluster_matches_scalar(scenario, reference, tmp_path):
    """A hash-partitioned cluster ≡ one store: registers AND estimates.

    The sharding claim is exactly the paper's mergeability claim worn
    sideways — each group's shard sees the same stream a single store
    would, so recovery from N shard directories must reassemble the
    byte-identical aggregator and float-identical estimates.
    """
    clustered = build_sharded_cluster(scenario, tmp_path / "cluster")
    assert_identical(reference, clustered, "sharded cluster vs add_hash")
    assert clustered.estimates() == reference.estimates(), (
        "cluster estimates drifted from the single-store floats"
    )


def test_group_commit_cluster_matches_scalar(scenario, reference, tmp_path):
    """One commit per shard per batch changes no register byte or float."""
    committed = build_group_commit_cluster(scenario, tmp_path / "cluster")
    assert_identical(reference, committed, "group-commit cluster vs add_hash")
    assert committed.estimates() == reference.estimates(), (
        "group-commit estimates drifted from the single-store floats"
    )


def test_rebalanced_cluster_matches_scalar(scenario, reference, tmp_path):
    """Shipping whole sketches between shards mid-stream changes nothing."""
    rebalanced = build_rebalanced_cluster(scenario, tmp_path / "cluster")
    assert_identical(reference, rebalanced, "rebalanced cluster vs add_hash")
    assert rebalanced.estimates() == reference.estimates(), (
        "post-rebalance estimates drifted from the single-store floats"
    )


def test_instrumented_matches_uninstrumented(scenario, reference, tmp_path):
    """Metrics + tracing on cannot change a byte or a float anywhere."""
    from repro.obs import metrics, trace

    spans_before = len(trace.spans())
    observed = build_instrumented(scenario, tmp_path / "obs_store")
    assert_identical(reference, observed, "instrumented vs add_hash")
    assert observed.estimates() == reference.estimates(), (
        "estimates drifted under instrumentation"
    )
    # The instrumentation actually ran: spans were recorded and the
    # WAL-append counters moved (guards against a silently-disabled pass).
    assert len(trace.spans()) > spans_before
    appended = metrics.REGISTRY.get("store.wal_append_records")
    assert appended is not None and appended.value > 0


def test_batched_estimates_match_scalar(scenario, reference):
    """The aggregator's ``estimates()``, ``estimate()`` and ``top()`` (read
    off its arrays) vs each oracle sketch's own ``estimate()``."""
    aggregator = build_segmented(scenario)
    batched = aggregator.estimates()
    for key, sketch in reference.sketches.items():
        assert batched[key] == sketch.estimate() == aggregator.estimate(key), (
            f"batched estimate of group {key!r} differs from the scalar solve"
        )
    expected = sorted(batched.items(), key=lambda kv: -kv[1])
    assert aggregator.top(len(batched)) == expected


def test_estimate_registers_matches_scalar(scenario, reference):
    """The batched register-matrix solve equals scalar estimation row by row."""
    from repro.estimation.batch import estimate_registers

    dense = {
        key: (
            sketch.copy().densify() if hasattr(sketch, "densify") else sketch
        )
        for key, sketch in register_items(reference)
    }
    if not dense:
        pytest.skip("scenario produced no groups")
    params = next(iter(dense.values()))._params
    keys = sorted(dense)
    stacked = estimate_registers(
        np.array([dense[key]._registers for key in keys], dtype=np.int64), params
    )
    for key, value in zip(keys, stacked.tolist()):
        assert value == dense[key].estimate()


def register_items(oracle):
    return sorted(oracle.sketches.items())


@pytest.mark.parametrize("seed", rounds(3))
def test_parallel_matches_scalar(seed, slice_counts):
    """``workers=2`` thread fan-out folds vs the scalar loop.

    Separate (and fewer) seeds: each scenario carries a stream longer
    than two chunks, which makes its scalar reference the slowest here,
    and rebatching per group is itself part of the invariant
    (commutative + idempotent + exact merge).
    """
    scenario = fan_out_scenario(1000 + seed)
    reference = build_scalar(scenario)
    parallel = build_parallel(scenario, workers=2)
    assert max(slice_counts) >= 2
    assert register_bytes(reference) == register_bytes(parallel)


@pytest.mark.parametrize("seed", rounds(3))
def test_stacked_segmented_matches_scalar(seed, kernel_rows):
    """Runs of dense groups fold as rows of one stacked block."""
    scenario = stacked_scenario(2000 + seed)
    reference = build_scalar(scenario)
    segmented = build_segmented(scenario)
    assert max(rows or 0 for rows in kernel_rows) >= 2
    assert_identical(reference, segmented, "stacked fold_segments vs add_hash")
