"""Executor semantics over in-memory and windowed sources."""

import math

import pytest

from repro.aggregate import DistinctCountAggregator
from repro.query import (
    Estimate,
    Filter,
    Scan,
    SetOp,
    TopK,
    Window,
    access_path,
    as_source,
    execute,
    execute_sketches,
    query,
)
from repro.windowed import SlidingWindowDistinctCounter


def aggregator_with(groups: dict) -> DistinctCountAggregator:
    aggregator = DistinctCountAggregator(p=10)
    for group, items in groups.items():
        for item in items:
            aggregator.add(group, item)
    return aggregator


@pytest.fixture
def countries():
    return aggregator_with(
        {
            "country:US": [f"us-{i}" for i in range(3000)],
            "country:DE": [f"de-{i}" for i in range(1000)],
            "city:berlin": [f"b-{i}" for i in range(500)],
        }
    )


class TestEstimate:
    def test_estimate_all_sorted_by_key(self, countries):
        result = execute(Estimate(Scan()), countries)
        assert result.kind == "estimates"
        assert [key for key, _ in result.rows] == sorted(
            key for key, _ in result.rows
        )
        assert dict(result.rows) == countries.estimates()

    def test_implicit_estimate_for_sketch_valued_root(self, countries):
        assert execute(Scan(), countries).rows == execute(
            Estimate(Scan()), countries
        ).rows

    def test_estimates_are_bit_identical_to_scalar(self, countries):
        for key, value in execute(Estimate(Scan()), countries).rows:
            assert value == countries.group_sketch(key).estimate()


class TestFilter:
    def test_prefix(self, countries):
        rows = execute(Estimate(Filter(Scan(), prefix="country:")), countries).rows
        assert [key for key, _ in rows] == [b"country:DE", b"country:US"]

    def test_keys_selective(self, countries):
        rows = execute(
            Estimate(Filter(Scan(), keys=("city:berlin", "missing"))), countries
        ).rows
        assert [key for key, _ in rows] == [b"city:berlin"]

    def test_many_explicit_keys_on_a_spill_plan_selective(self, tmp_path):
        """65 keys still plan one point read each: a scan of a spill would
        read every partition to list its groups before the same reads."""
        from repro.store import SpilledGroupBy

        groups = [f"g{index}" for index in range(80) for _ in range(3)]
        items = list(range(len(groups)))
        aggregator = DistinctCountAggregator(p=8)
        aggregator.add_batch(groups, items)
        plan = Estimate(Filter(Scan(), keys=tuple(f"g{index}" for index in range(65))))
        with SpilledGroupBy(tmp_path / "spill", p=8, partitions=4) as spill:
            spill.add_batch(groups, items)
            assert access_path(spill, plan.child).kind == "selective"
            rows = execute(plan, spill).rows
        assert len(rows) == 65
        assert rows == execute(plan, aggregator).rows

    def test_predicate(self, countries):
        rows = execute(
            Estimate(Filter(Scan(), predicate=lambda k: k.endswith(b"US"))),
            countries,
        ).rows
        assert [key for key, _ in rows] == [b"country:US"]


class TestTopK:
    def test_order_and_truncation(self, countries):
        result = execute(TopK(Scan(), 2), countries)
        assert result.kind == "top"
        assert [key for key, _ in result.rows] == [b"country:US", b"country:DE"]

    def test_ties_break_by_ascending_key(self):
        aggregator = aggregator_with({"b": ["x"], "a": ["x"], "c": ["x"]})
        rows = execute(TopK(Scan(), 3), aggregator).rows
        assert [key for key, _ in rows] == [b"a", b"b", b"c"]

    def test_zero_count(self, countries):
        assert execute(TopK(Scan(), 0), countries).rows == ()


class TestSetOps:
    def test_union_is_sketch_valued(self, countries):
        result = execute(
            SetOp(
                "union",
                Filter(Scan(), keys=("country:US",)),
                Filter(Scan(), keys=("country:DE",)),
            ),
            countries,
        )
        assert result.kind == "estimates"
        assert result.rows[0][0] == b"union"
        assert result.value == pytest.approx(4000, rel=0.1)

    def test_intersect_diff_jaccard_scalar(self):
        aggregator = aggregator_with(
            {"a": [f"k{i}" for i in range(2000)], "b": [f"k{i}" for i in range(1000, 3000)]}
        )
        left = Filter(Scan(), keys=("a",))
        right = Filter(Scan(), keys=("b",))
        intersect = execute(SetOp("intersect", left, right), aggregator)
        assert intersect.kind == "setop"
        assert intersect.rows[0][0] == b"intersect"
        assert intersect.value == pytest.approx(1000, rel=0.35)
        diff = execute(SetOp("diff", left, right), aggregator)
        assert diff.value == pytest.approx(1000, rel=0.35)
        jaccard = execute(SetOp("jaccard", left, right), aggregator)
        assert 0.0 <= jaccard.value <= 1.0

    def test_empty_side_collapses_to_empty_sketch(self, countries):
        result = execute(
            SetOp(
                "intersect",
                Filter(Scan(), keys=("country:US",)),
                Filter(Scan(), keys=("nothing-matches",)),
            ),
            countries,
        )
        assert result.value == 0.0

    def test_named_sources(self, countries):
        other = aggregator_with({"country:US": ["us-0", "us-1"]})
        result = execute(
            SetOp("intersect", Scan(), Scan("other")),
            countries,
            sources={"other": other},
        )
        assert result.value == pytest.approx(2, abs=1.5)

    def test_unknown_source_raises(self, countries):
        with pytest.raises(KeyError, match="nope"):
            execute(Estimate(Scan("nope")), countries)


class TestWindow:
    def _counter(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        for i in range(100):
            counter.add(f"early-{i}", at=5.0)   # bucket 0
        for i in range(200):
            counter.add(f"mid-{i}", at=25.0)    # bucket 2
        for i in range(300):
            counter.add(f"late-{i}", at=55.0)   # bucket 5
        return counter

    def test_window_merges_covered_buckets(self):
        counter = self._counter()
        result = execute(Window(Scan(), duration=40.0), counter, now=55.0)
        # Buckets 2..5 covered (ceil(40/10)=4 buckets): mid + late.
        assert result.rows[0][0] == b"window[2:5]"
        assert result.value == pytest.approx(500, rel=0.1)

    def test_window_end_overrides_now(self):
        counter = self._counter()
        result = execute(Window(Scan(), duration=10.0, end=25.0), counter, now=999.0)
        assert result.value == pytest.approx(200, rel=0.1)

    def test_window_matches_counter_estimate_exactly(self):
        counter = self._counter()
        result = execute(Window(Scan(), duration=60.0), counter, now=55.0)
        assert result.value == counter.estimate(now=55.0)

    def test_window_needs_anchor(self):
        with pytest.raises(ValueError, match="anchor"):
            execute(Window(Scan(), duration=10.0), self._counter())

    def test_window_needs_bucket_width(self, countries):
        with pytest.raises(ValueError, match="bucket_width"):
            execute(Window(Scan(), duration=10.0), countries, now=1.0)

    def test_window_over_retired_buckets_takes_bucket_width(self, tmp_path):
        from repro.store import SketchStore

        with SketchStore.open(tmp_path / "s", p=10) as store:
            retiring = SlidingWindowDistinctCounter(
                window=60.0, buckets=6, p=10, store=store
            )
            for i in range(150):
                retiring.add(f"old-{i}", at=5.0)
            for i in range(50):
                retiring.add(f"new-{i}", at=500.0)  # evicts bucket 0 into the store
            retiring.flush_to_store()
            plan = Window(Scan(), duration=10.0, end=5.0, bucket_width=10.0)
            result = execute(plan, store)
            assert result.value == pytest.approx(150, rel=0.1)
            dialect = query(store, "window 10s bucket 10s ending 5")
            assert dialect.value == result.value

    def test_empty_window_returns_no_rows(self):
        counter = self._counter()
        result = execute(Window(Scan(), duration=10.0, end=1e6), counter)
        assert result.rows == ()


class TestTimeValidation:
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_now_must_be_finite(self, now):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        counter.add("x", at=5.0)
        with pytest.raises(ValueError, match=f"now must be finite, got {now!r}"):
            execute(Window(Scan(), duration=10.0), counter, now=now)


class TestSources:
    def test_as_source_returns_counter_itself(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6)
        assert as_source(counter) is counter

    def test_as_source_rejects_unknown(self):
        with pytest.raises(TypeError, match="SketchSource"):
            as_source(42)

    def test_windowed_source_round_trip(self):
        counter = SlidingWindowDistinctCounter(window=60.0, buckets=6, p=10)
        counter.add("alice", at=10.0)
        counter.add("bob", at=10.0)
        assert list(counter.groups()) == [b"bucket:1"]
        assert counter.group_sketch(b"bucket:1").estimate() == pytest.approx(2, abs=0.5)
        assert counter.group_sketch(b"bucket:9") is None
        assert counter.group_sketch(b"unrelated") is None
        assert counter.top(1)[0][0] == b"bucket:1"
        assert counter.estimates() == {b"bucket:1": counter.estimate(now=10.0)}


class TestResultSurface:
    def test_decoded(self, countries):
        decoded = execute(TopK(Scan(), 1), countries).decoded()
        assert decoded[0][0] == "country:US"

    def test_value_requires_single_row(self, countries):
        with pytest.raises(ValueError, match="rows"):
            execute(Estimate(Scan()), countries).value

    def test_execute_sketches_returns_private_copies(self, countries):
        sketches = execute_sketches(Scan(), countries)
        key = b"country:US"
        before = countries.group_sketch(key).to_bytes()
        sketches[key].add("mutation")
        assert countries.group_sketch(key).to_bytes() == before

    def test_query_entry_point_accepts_plan_and_text(self, countries):
        plan = TopK(Filter(Scan(), prefix="country:"), 10)
        assert (
            query(countries, "top 10 where key startswith 'country:'").rows
            == query(countries, plan).rows
        )
        assert query(countries).kind == "estimates"
