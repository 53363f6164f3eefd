"""The percentile helper reports a tail only with ten samples beyond it."""

import pytest

from stats import MIN_BEYOND, median, percentile


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_refuses_fewer_than_ten_samples_beyond(q, needed):
    with pytest.raises(ValueError, match="at least 10"):
        percentile(range(needed - 1), q)
    percentile(range(needed), q)


def test_ten_beyond_is_the_threshold():
    assert MIN_BEYOND == 10
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 50)


def test_interpolates_between_order_statistics():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 90) == pytest.approx(90.1)
    assert percentile(samples, 0) == 1
    assert percentile([3.0] * 20, 50) == 3.0


def test_out_of_range_percentile():
    with pytest.raises(ValueError, match="outside"):
        percentile(range(1000), 101)


def test_median_of_repeats_has_no_tail_requirement():
    assert median([3.0]) == 3.0
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])
