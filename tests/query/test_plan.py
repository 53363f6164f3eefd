"""Logical plan algebra: construction, validation, canonicalisation."""

import math

import pytest

from repro.query import (
    DEFAULT_SOURCE,
    Estimate,
    Filter,
    Scan,
    SetOp,
    TopK,
    Window,
    sources_of,
)


class TestConstruction:
    def test_scan_defaults_to_default_source(self):
        assert Scan().source == DEFAULT_SOURCE

    def test_filter_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Filter(Scan())
        with pytest.raises(ValueError):
            Filter(Scan(), keys=("a",), prefix="b")

    def test_filter_canonicalises_keys(self):
        node = Filter(Scan(), keys=("a", b"b", 7))
        assert node.keys == (b"a", b"b", (7).to_bytes(8, "little", signed=True))
        assert Filter(Scan(), prefix="country:").prefix == b"country:"

    def test_filter_matches(self):
        assert Filter(Scan(), keys=("a",)).matches(b"a")
        assert not Filter(Scan(), keys=("a",)).matches(b"b")
        assert Filter(Scan(), prefix="co").matches(b"country:US")
        assert Filter(Scan(), predicate=lambda k: k.endswith(b"x")).matches(b"ax")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(Scan(), duration=0.0)
        with pytest.raises(ValueError):
            Window(Scan(), duration=-5.0)

    def test_setop_validation(self):
        with pytest.raises(ValueError):
            SetOp("xor", Scan(), Scan())

    def test_topk_validation(self):
        with pytest.raises(ValueError):
            TopK(Scan(), -1)

    def test_plans_are_immutable_and_hashable(self):
        plan = TopK(Filter(Scan(), prefix="g"), 3)
        with pytest.raises(Exception):
            plan.count = 5  # frozen dataclass
        assert hash(plan) == hash(TopK(Filter(Scan(), prefix="g"), 3))


class TestWindowValues:
    """Durations and bucket widths must be finite and > 0; ``end`` finite."""

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_must_be_finite(self, duration):
        with pytest.raises(
            ValueError, match=f"duration must be finite and > 0, got {duration!r}"
        ):
            Window(Scan(), duration=duration)

    @pytest.mark.parametrize("bucket_width", [0.0, -1.0])
    def test_bucket_width_must_be_positive(self, bucket_width):
        with pytest.raises(
            ValueError, match=f"bucket_width must be finite and > 0, got {bucket_width!r}"
        ):
            Window(Scan(), 10.0, end=5.0, bucket_width=bucket_width)

    @pytest.mark.parametrize("bucket_width", [math.nan, math.inf])
    def test_bucket_width_must_be_finite(self, bucket_width):
        with pytest.raises(
            ValueError, match=f"bucket_width must be finite and > 0, got {bucket_width!r}"
        ):
            Window(Scan(), 10.0, end=5.0, bucket_width=bucket_width)

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_end_must_be_finite(self, end):
        with pytest.raises(ValueError, match=f"end must be finite, got {end!r}"):
            Window(Scan(), 10.0, end=end)


class TestSourcesOf:
    def test_single(self):
        assert sources_of(Estimate(Scan())) == (DEFAULT_SOURCE,)

    def test_setop_collects_both_sides_in_order(self):
        plan = SetOp("intersect", Scan("today"), Filter(Scan("week"), prefix="g"))
        assert sources_of(plan) == ("today", "week")

    def test_duplicates_collapse(self):
        plan = SetOp("union", Scan(), Scan())
        assert sources_of(plan) == (DEFAULT_SOURCE,)
