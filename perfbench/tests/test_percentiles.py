"""The percentile rule and the spread statistic."""

import numpy as np
import pytest

from percentiles import median, percentile, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10000, 99.9),  # 10 samples beyond the p99.9
        (9999, 99.0),  # 9.999 beyond the p99.9: one too few
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=137))
    for q in (0, 12.5, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)



def test_median():
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5
