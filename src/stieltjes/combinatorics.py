"""Exact binomials and complete Bell polynomials."""

from __future__ import annotations

import math
from typing import Sequence

from mpmath import iv, mpf


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bell_complete(xs: Sequence) -> mpf:
    """Complete exponential Bell polynomial Y_r(x_1..x_r), r = len(xs).

    Computed by the recurrence Y_{r+1} = sum_j C(r,j) Y_{r-j} x_{j+1};
    Y_0 = 1.  Cost O(r^2), numerically stable for the harmonic-number
    specializations used here.  Intervals (``mpmath.iv``) stay intervals.
    """
    xs = [v if isinstance(v, iv.mpf) else mpf(v) for v in xs]
    Y = [mpf(1)]
    for r in range(len(xs)):
        Y.append(sum(xs[j] * (binomial(r, j) * Y[r - j])
                     for j in range(r + 1)))
    return Y[len(xs)]
