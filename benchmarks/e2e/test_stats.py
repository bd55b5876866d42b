"""The percentile rule and the spread the benchmark is judged by."""

import pytest

from benchmarks.e2e.stats import percentile, quartiles, spread, supported


@pytest.mark.parametrize(
    "p, enough",
    [(50, 20), (90, 100), (95, 200), (99, 1000), (99.9, 10000)],
)
def test_a_percentile_needs_ten_samples_beyond_it(p, enough):
    assert supported(enough, p)
    assert not supported(enough - 1, p)


def test_percentile_outside_zero_to_hundred_is_rejected():
    with pytest.raises(ValueError):
        supported(1000, 100)


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 95) == 5.0


def test_quartiles_match_the_statistics_module():
    values = [float(v) for v in range(1, 11)]
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
