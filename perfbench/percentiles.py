"""Order statistics the benchmark reports.

A distribution is reported as its median plus the highest percentile
that still has at least ten samples beyond it (:func:`tail_percentile`),
so a tail figure never rests on a handful of outliers.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: Tail percentiles tried, highest first.
CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest of :data:`CANDIDATES` with at least :data:`MIN_BEYOND` samples beyond it.

    With ``n`` samples, ``(100 - q) / 100 * n`` of them lie beyond the
    ``q``-th percentile.  Returns ``None`` when even the lowest candidate
    leaves fewer than ten beyond it.
    """
    for q in CANDIDATES:
        if (100.0 - q) / 100.0 * n >= MIN_BEYOND - 1e-9:
            return q
    return None


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))

