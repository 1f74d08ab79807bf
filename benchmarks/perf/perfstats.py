"""Summary statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10

#: The end-to-end tail metric is ``latency_p90_ms``; every timed phase
#: keeps measuring until p90 has ``MIN_BEYOND`` samples beyond it.
TAIL = 90.0


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the *p*-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of *n*
    samples beyond it, or None when even the median has too few."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def min_samples_for(p: float) -> int:
    """Smallest sample count for which *p* qualifies as a tail percentile."""
    n = 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
