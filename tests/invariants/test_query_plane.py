"""One plan, five sources: the query plane joins the identity matrix.

The unified query layer promises that a logical plan is *portable*: the
same tree executed over the in-memory aggregator, the durable store, a
lock-free reader, a WAL-shipped follower, and a spilled GROUP BY must
return identical group keys and bit-identical estimate floats — not
merely close ones. These tests run randomized scenarios through
:func:`tests.invariants.harness.build_query_plane_sources` and assert
exact row equality (and, for sketch-valued plans, byte-identical
materialised sketches) against the aggregator reference.
"""

import pytest

from repro.query import (
    Estimate,
    Filter,
    Scan,
    access_path,
    execute,
    execute_sketches,
)
from tests.invariants.harness import (
    build_query_plane_sources,
    build_query_plans,
    random_scenario,
    rounds,
)

SOURCE_NAMES = ("aggregator", "store", "reader", "follower", "spill")


@pytest.mark.parametrize("seed", rounds())
def test_same_plan_same_rows_across_all_sources(seed, tmp_path):
    """Every representative plan returns exactly equal rows on each layer."""
    scenario = random_scenario(6000 + seed)
    sources, close = build_query_plane_sources(scenario, tmp_path)
    try:
        assert set(sources) == set(SOURCE_NAMES)
        for name, plan in build_query_plans(scenario).items():
            reference = execute(plan, sources["aggregator"])
            for source_name in SOURCE_NAMES[1:]:
                result = execute(plan, sources[source_name])
                assert result.kind == reference.kind
                assert result.rows == reference.rows, (
                    f"plan {name!r} over {source_name!r} diverges from the "
                    f"aggregator reference (seed {scenario.seed})"
                )
    finally:
        close()


@pytest.mark.parametrize("seed", rounds())
def test_materialised_sketches_are_bit_identical(seed, tmp_path):
    """Sketch-valued plans land on byte-identical sketches per layer.

    Stronger than equal floats: the executor's materialisation (full
    scan, selective replay, or partition iteration — whichever the
    planner picked for that layer) must reach the same serialized bytes.
    """
    scenario = random_scenario(7000 + seed)
    sources, close = build_query_plane_sources(scenario, tmp_path)
    try:
        groups = scenario.groups
        plans = {
            "scan": Scan(),
            "filter-keys": Filter(Scan(), keys=tuple(groups[: max(1, len(groups) // 2)])),
            "filter-prefix": Filter(Scan(), prefix="g"),
        }
        for name, plan in plans.items():
            reference = {
                key: sketch.to_bytes()
                for key, sketch in execute_sketches(plan, sources["aggregator"]).items()
            }
            for source_name in SOURCE_NAMES[1:]:
                materialised = {
                    key: sketch.to_bytes()
                    for key, sketch in execute_sketches(plan, sources[source_name]).items()
                }
                assert materialised.keys() == reference.keys(), (
                    f"plan {name!r}: group sets differ on {source_name!r} "
                    f"(seed {scenario.seed})"
                )
                for key, payload in reference.items():
                    assert materialised[key] == payload, (
                        f"plan {name!r}: sketch of group {key!r} on "
                        f"{source_name!r} is not bit-identical (seed {scenario.seed})"
                    )
    finally:
        close()


def test_planner_picks_layer_appropriate_access_paths(tmp_path):
    """Same filter, different physical paths — the results above prove
    they agree; this pins *which* path each layer gets."""
    scenario = random_scenario(8001)
    sources, close = build_query_plane_sources(scenario, tmp_path)
    try:
        selective = Filter(Scan(), keys=(scenario.groups[0],))
        assert access_path(sources["aggregator"], selective).kind == "selective"
        assert access_path(sources["reader"], selective).kind == "selective"
        assert access_path(sources["spill"], selective).kind == "selective"
        assert access_path(sources["spill"], None).kind == "partitions"
        assert access_path(sources["reader"], None).kind == "scan"
        prefixed = Filter(Scan(), prefix="g")
        assert access_path(sources["aggregator"], prefixed).kind == "scan"
    finally:
        close()


@pytest.mark.parametrize("seed", rounds(3))
def test_estimates_match_per_source_native_surface(seed, tmp_path):
    """``Estimate(Scan())`` equals each source's own ``estimates()``.

    Guards the fast path: the executor may answer a whole-source
    estimate from the source directly, so that shortcut must be float-
    identical to the materialise-then-solve route.
    """
    scenario = random_scenario(9000 + seed)
    sources, close = build_query_plane_sources(scenario, tmp_path)
    try:
        generic = Estimate(Filter(Scan(), predicate=lambda key: True))
        for name, source in sources.items():
            fast = execute(Estimate(Scan()), source)
            slow = execute(generic, source)
            assert fast.rows == slow.rows, (
                f"fast-path estimates diverge on {name!r} (seed {scenario.seed})"
            )
            native = dict(source.estimates())
            assert dict(fast.rows) == native, (
                f"plan estimates diverge from {name!r}.estimates() "
                f"(seed {scenario.seed})"
            )
    finally:
        close()


@pytest.mark.parametrize("seed", rounds(3))
def test_direct_read_surface_agrees_across_layers(seed, tmp_path):
    """``len``, ``in``, ``groups``, ``estimate``, ``estimates``, ``top`` and
    ``group_sketch`` called directly on the store, reader and follower
    equal the aggregator's answers, for seen and unseen keys alike."""
    scenario = random_scenario(10000 + seed)
    sources, close = build_query_plane_sources(scenario, tmp_path)
    try:
        reference = sources["aggregator"]
        keys = [*scenario.groups, "never-seen", b"\x00never", 12345]
        for name in ("store", "reader", "follower"):
            source = sources[name]
            assert len(source) == len(reference), name
            assert list(source.groups()) == list(reference.groups()), name
            assert source.estimates() == reference.estimates(), name
            for count in (1, 3, len(reference) + 1):
                assert source.top(count) == reference.top(count), (name, count)
            for key in keys:
                assert (key in source) == (key in reference), (name, key)
                assert source.estimate(key) == reference.estimate(key), (name, key)
                expected = reference.group_sketch(key)
                actual = source.group_sketch(key)
                if expected is None:
                    assert actual is None, (name, key)
                else:
                    assert actual.to_bytes() == expected.to_bytes(), (name, key)
    finally:
        close()
