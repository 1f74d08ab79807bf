import pytest

from perfstats import iqr_share, min_samples_for, percentile, samples_beyond, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (136, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_p90_needs_one_hundred_samples():
    assert min_samples_for(90.0) == 100
    assert samples_beyond(99, 90.0) == 9


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(101)), 90) == 90.0


def test_iqr_share_matches_statistics_quantiles():
    assert iqr_share([10.0] * 5) == 0.0
    assert iqr_share([9.0, 10.0, 11.0]) == pytest.approx(0.2)
