"""Small statistics used by the benchmark report.

Kept free of any engine import so the tests can check the arithmetic alone.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # a tail value needs at least this many samples above it


def tail(values) -> tuple[float, float] | None:
    """Highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile) or None when there are too few samples.
    With n sorted samples that is the value at 1-based rank n - TAIL_BEYOND,
    i.e. the nearest-rank percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def loglog_slope(genera, seconds) -> float:
    """Least-squares slope of log(time) against log(genus).

    The same closed form as acceptance criterion 8 in tests/test_acceptance.py.
    """
    xs = [math.log(g) for g in genera]
    ys = [math.log(t) for t in seconds]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
