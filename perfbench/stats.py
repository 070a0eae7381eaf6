"""Order statistics used by the benchmark and its spread check."""
from __future__ import annotations

import math
import statistics

# a reported percentile needs at least this many samples above it
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of a non-empty sample.

    Matches numpy's default 'linear' method: rank q * (n - 1) in the sorted
    sample, interpolated between its two neighbours.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples sit strictly above the q-quantile's rank."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def tail_rule_met(n: int, q: float, need: int = TAIL_SAMPLES) -> bool:
    """True when the q-quantile of n samples has `need` samples beyond it."""
    return samples_beyond(n, q) >= need


def relative_iqr(values) -> float:
    """Quartile distance over the median, as statistics.quantiles(n=4) gives it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
