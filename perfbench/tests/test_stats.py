"""Percentiles from raw samples, at their edges."""

import math

import pytest

from stats import MIN_BEYOND, percentile, summarize, tail_quantile


def test_empty_sample_raises():
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("q", [-0.01, 1.01, math.nan])
def test_quantile_outside_unit_interval_raises(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_single_sample_is_every_percentile():
    for q in (0.0, 0.5, 0.99, 1.0):
        assert percentile([7.5], q) == 7.5


def test_extremes_are_min_and_max_of_unsorted_input():
    samples = [5.0, 1.0, 9.0, 3.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 9.0


def test_interpolates_between_closest_ranks():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.5) == pytest.approx(25.0)
    assert percentile(samples, 1 / 3) == pytest.approx(20.0)
    assert percentile(list(range(101)), 0.99) == pytest.approx(99.0)


def test_input_is_not_mutated():
    samples = [3.0, 1.0, 2.0]
    percentile(samples, 0.5)
    assert samples == [3.0, 1.0, 2.0]


def test_tail_needs_ten_samples_beyond():
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(999) == 0.95
    assert tail_quantile(200) == 0.95
    assert tail_quantile(100) == 0.90
    assert tail_quantile(20) == 0.50
    assert tail_quantile(19) is None
    assert tail_quantile(0) is None
    assert MIN_BEYOND == 10


def test_summary_reports_counts():
    assert summarize([]) == {"count": 0, "p50": None, "p99": None}
    summary = summarize([float(i) for i in range(1000)])
    assert summary["count"] == 1000
    assert summary["p50"] == pytest.approx(499.5)
    assert summary["p99"] == pytest.approx(989.01)
