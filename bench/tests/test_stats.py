"""Percentiles are reported only with at least ten samples beyond them."""

from bench import stats


def test_samples_beyond():
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.samples_beyond(99, 90.0) == 9
    assert stats.samples_beyond(1000, 99.0) == 10


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert stats.supported_percentile(values, 90.0) == 90.0
    assert stats.supported_percentile(values[:99], 90.0) is None
    assert stats.supported_percentile(values, 99.0) is None
    assert stats.tail_ms_or_zero(values, 99.0) == 0.0
    assert stats.tail_ms_or_zero([], 90.0) == 0.0


def test_highest_supported_tail():
    assert stats.highest_supported_tail([1.0] * 50) is None
    assert stats.highest_supported_tail([float(i) for i in range(200)])[0] == 90.0
    assert stats.highest_supported_tail([float(i) for i in range(1000)])[0] == 99.0


def test_describe_reports_count_and_median():
    summary = stats.describe_ms([0.001, 0.002, 0.003])
    assert summary == {"n": 3, "p50_ms": 2.0}


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == (q3 - q1) / q2
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
