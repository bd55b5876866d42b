"""Percentiles, the sample-count rule, and the spread runs are judged by.

A timing is reported as a median and the highest percentile that has at
least :data:`MIN_BEYOND` samples beyond it; a percentile without that
support is flagged, because a handful of samples would set its value.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "percentile", "quartiles", "spread", "supported"]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples put at least :data:`MIN_BEYOND` beyond the
    ``p``-th percentile (``p`` in percent, e.g. ``99``)."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p!r}")
    # n * (1 - p/100) >= MIN_BEYOND, kept in integers of 1/1000 percent so
    # p = 99.9 at n = 10000 is not lost to float rounding.
    return n * round((100 - p) * 1000) >= MIN_BEYOND * 100 * 1000


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)
