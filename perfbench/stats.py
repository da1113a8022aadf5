"""Order statistics used by the benchmark report.

Percentiles use the nearest-rank rule on sorted samples, so a reported
percentile is always one of the measured values and the number of samples
strictly beyond it is known exactly.
"""
from __future__ import annotations

import math
import statistics


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by nearest rank."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered) / 100.0) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th rank."""
    return n - math.ceil(q * n / 100.0)


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median,
    computed with statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
