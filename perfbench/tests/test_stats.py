"""Percentile selection and quartiles."""

import statistics

import pytest

import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


@pytest.mark.parametrize("n, expected", [
    (19, None),      # p50 leaves 9 beyond it
    (20, 50.0),
    (99, 50.0),      # p90 leaves 9 beyond it
    (100, 90.0),     # exactly 10 beyond p90
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= 10


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    summary = stats.summary(values)
    assert summary["n"] == 10
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / summary["median"])
