"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import statistics
from math import exp, lgamma, log

TAIL_BEYOND = 10  # samples a reported tail percentile must have above it


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution over the ranks.  It estimates the
    same quantile as a single order statistic, with less run-to-run
    variance, which matters when the pooled samples mix ops of different
    lengths and the quantile falls where two ops' times meet.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if n == 1 or a < 1 or b < 1:
        return xs[min(n - 1, max(0, round(p * n) - 1))]
    log_norm = lgamma(a) + lgamma(b) - lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            edge = a if t <= 0.0 else b
            return exp(-log_norm) if edge == 1 else 0.0
        return exp((a - 1) * log(t) + (b - 1) * log(1 - t) - log_norm)

    steps = 16  # Simpson intervals per rank
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        for j in range(1, steps):
            total += (4 if j % 2 else 2) * density(lo + j * h)
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    still has at least ``TAIL_BEYOND`` samples above it.

    With n samples that is the 100 * (n - 10) / n-th percentile.  A tail is
    never taken below the median: with fewer than 2 * TAIL_BEYOND samples
    the median is returned as the 50th percentile, with the n // 2 samples
    beyond it.
    """
    n = len(samples)
    if 2 * (n - TAIL_BEYOND) < n:
        return quantile(samples, 0.5), 50.0, n // 2
    p = (n - TAIL_BEYOND) / n
    return quantile(samples, p), 100.0 * p, TAIL_BEYOND


def median(samples) -> float:
    return statistics.median(samples)
