"""Order statistics of operation times, with the tail rule they obey.

A percentile is reported only when at least MIN_BEYOND samples lie beyond
it; with fewer, it says nothing about the tail.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples lie above the q-th percentile's rank."""
    return n - math.ceil(n * q / 100.0)


def min_samples(q: float) -> int:
    """Fewest samples for which the q-th percentile has MIN_BEYOND beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
