#!/usr/bin/env python3
"""Per-call timings of the trigonometric kernel, each next to its accuracy.

    PYTHONPATH=src python3 tools/bench_trig.py [--repeat R] > out.json

Times ``kernels.sum_trig_averaged`` on the four coefficient families of the
paper's Fourier identities (1/n, log n/n, log(1+1/n) with odd multiples,
(2 pi n)^(s-1)) at x = 1/3 and x = 1/1000, and ``hurwitz.zeta_fourier`` at
(s, x) = (-200, 3/10) and (1/2, 1/1000), at 20, 30, 50 and 100 digits.
Each row holds the best wall time of R calls, the terms used, the claimed
error and the actual error against mpmath's closed forms at digits + 40.
The package is whichever ``stieltjes`` is on the path, so the same script
times any checkout.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

from mpmath import mp, mpf

from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import zeta_fourier
from stieltjes.kernels import sum_trig_averaged

DIGITS = (20, 30, 50, 100)
XS = (Fraction(1, 3), Fraction(1, 1000))


def _glog():
    return mp.euler + mp.log(2 * mp.pi)


S_POWER = mpf(-1) / 2
# name: (coeff, mode, odd_multiples, closed form at x)
FAMILIES = {
    "1/n sin": (lambda n: mpf(1) / n, "sin", False,
                lambda x: mp.pi * (mpf(1) / 2 - x)),
    "log n/n cos": (lambda n: mp.log(n) / n, "cos", False,
                    lambda x: ((mp.zeta(0, x, 2) + mp.zeta(0, 1 - x, 2)) / 2
                               + _glog() * mp.log(2 * mp.sinpi(x)))),
    "log(1+1/n) odd sin": (lambda n: mp.log(1 + mpf(1) / n), "sin", True,
                           lambda x: -(mp.psi(0, x) * mp.sinpi(x)
                                       + mp.pi / 2 * mp.cospi(x)
                                       + _glog() * mp.sinpi(x))),
    "(2 pi n)^(-3/2) cos": (
        lambda n: (2 * mp.pi * n) ** (S_POWER - 1), "cos", False,
        lambda x: ((2 * mp.pi) ** (S_POWER - 1)
                   * mp.polylog(1 - S_POWER, mp.expjpi(2 * x))).real),
}
ZETA_POINTS = ((-200, Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 1000)))


def _timed(call, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = call()
        best = min(best, time.perf_counter() - t0)
    return res, best


def _row(res, best, reference, digits):
    with mp.workdps(digits + 40):
        actual = abs(res.value - reference())
    return {"seconds": best, "terms": res.terms_used,
            "converged": bool(res.converged),
            "claimed_err": mp.nstr(res.err_estimate, 3),
            "actual_err": mp.nstr(actual, 3),
            "claim_covers": bool(actual <= res.err_estimate)}


def _exact(q):
    return mpf(q.numerator) / q.denominator


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    rows = []
    for digits in DIGITS:
        cfg = PrecisionConfig(digits=digits)
        # x and s pass as strings, which every version of the routes reads
        for x in XS:
            for name, (coeff, mode, odd, closed) in FAMILIES.items():
                res, best = _timed(lambda: sum_trig_averaged(
                    coeff, mode, str(x), cfg, odd_multiples=odd), args.repeat)
                row = {"kernel": "sum_trig_averaged", "family": name,
                       "x": str(x), "digits": digits}
                row.update(_row(res, best, lambda: closed(_exact(x)), digits))
                rows.append(row)
        for s, x in ZETA_POINTS:
            res, best = _timed(lambda: zeta_fourier(str(s), str(x), cfg),
                               args.repeat)
            row = {"kernel": "zeta_fourier", "s": str(s), "x": str(x),
                   "digits": digits}
            row.update(_row(res, best,
                            lambda: mp.zeta(_exact(Fraction(s)), _exact(x)),
                            digits))
            rows.append(row)
    print(json.dumps({"rows": rows}, indent=1))


if __name__ == "__main__":
    main()
