#!/usr/bin/env python3
"""Per-call timings of the trigonometric kernel and of the routes that glue
kernel results, each next to its accuracy.

    PYTHONPATH=src python3 tools/bench_routes.py [--repeat R] > out.json

Times ``kernels.sum_trig_averaged`` on the four coefficient families of the
paper's Fourier identities (1/n, log n/n, log(1+1/n) with odd multiples,
(2 pi n)^(s-1)) at x = 1/3 and x = 1/1000, ``hurwitz.zeta_fourier`` at
(s, x) = (-200, 3/10) and (1/2, 1/1000), and every public route whose value
combines kernel results (``ROUTES``), at 20, 30, 50 and 100 digits.  The
private helpers run inside them: ``hurwitz._recip_gamma_derivs`` and the
Leibniz sum inside ``zeta_hasse``, ``_gamma_one_minus`` inside
``zeta_fourier``, ``_zeta0_fourier``, the Fourier route of
``zeta_prime0`` and ``zeta_doubleprime0``, ``fourier.lerch_transform``
inside ``gamma1_fourier``, and ``_sondow_circle`` and ``_sondow_2q`` inside
``sondow_gamma``.  The direct series on ``kernels.sum_majorized`` have
their rows too: Bell, Srivastava-Choi, Kolbig's S1 and S2 (the private
``fourier._kolbig_s1`` and ``_kolbig_s2``, at the working precision their
caller sets), Ramanujan's exponential sum and Sondow's power series at
z = 1/2 and z = 1.  The Euler-Maclaurin engine has rows of its own:
``hurwitz_zeta_em`` at s = 3 (derivatives 0 and 3), s = -21/2 and
s = 1 + 2^-40, ``em_gamma`` for m = 1 and 10, psi at x = 1e-30, and, at 20
digits only, s = -1000, x = 3/10, where the plan takes 2,435 terms.  Each
row holds the best wall time of R calls, the terms used, the claimed
error and the actual error against a reference at 40 digits beyond the
request, or beyond the claim where that is finer: mpmath's closed forms
or its sums of the defining series, or for Sondow's constant on the unit
circle, where mpmath has none, the package's other route.  The package
is whichever ``stieltjes`` is on the path, so the same script times any
checkout.  The Hasse rows (``hasse_gamma``, ``digamma_hasse_series``,
``zeta_hasse``) also give ``cold_seconds``: one call after the tail's
table caches are cleared, what each process (and each ``validate``
worker) pays once.  ``terms`` is the result's own ``terms_used``: for a
route that runs a quadrature kernel it counts the integrand evaluations
with the terms summed, and for the Hasse rows the head's terms and every
evaluation of the tail's integrands.  Kolbig's integral
int_0^1 psi(t) sin(pi t) dt (``kolbig_check I``) has a row of its own.
``--only NAME`` (repeatable) times just the named routes.
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from fractions import Fraction

from mpmath import mp, mpf

from stieltjes import fourier, hurwitz
from stieltjes.constants import (bell_series_gamma, briggs_gamma,
                                  digamma_hasse_series, em_gamma, hasse_gamma,
                                  ramanujan_exp_sum)
from stieltjes.core import PrecisionConfig
from stieltjes.fourier import gamma1_fourier, kummer_log_gamma, sondow_gamma
from stieltjes.gammafuncs import (bourguet_log_gamma, digamma, log_gamma,
                                  polygamma)
from stieltjes.hurwitz import (poisson_zeta, zeta_doubleprime0, zeta_fourier,
                               zeta_hasse, zeta_prime0, zeta_srivastava_choi)
from stieltjes.kernels import hurwitz_zeta_em, sum_trig_averaged

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

# the routes' inputs are dyadic, so exact at every precision
X = mpf(3) / 8
S_LEFT, S_RIGHT = mpf(-5) / 4, mpf(5) / 2
# -41/3 rounded to 53 bits: r = ceil(1 - s) = 15 terms of the Hasse tail
S_NEGATIVE = mpf(-41) / 3
CIRCLE = Fraction(1, 3)
# the Euler-Maclaurin rows' inputs, all dyadic
S_EM = mpf(-21) / 2
S_POLE = 1 + mpf(2) ** -40
X_TINY = mpf(1e-30)
X_TENTHS = mpf(0.3)
SLOW_ROUTES = {"hurwitz_zeta_em s=-1000 x=3/10"}  # timed at 20 digits only
HASSE_ROUTES = ("hasse_gamma", "digamma_hasse_series", "zeta_hasse")
# the Hasse tail's per-process caches, which a cold call fills
HASSE_CACHES = ("_node_table", "_tail_table", "_tail_coefficients",
                "_head_weights")


@functools.lru_cache(maxsize=None)
def _stieltjes1_at(prec):
    return mp.stieltjes(1, X)


def _stieltjes1(digits):
    return _stieltjes1_at(mp.prec)


def _kolbig_s1_reference(digits):
    # -sum_j zeta'(2j, 1)/4^j, each term below 1/16 of the one before
    return mp.fsum(-mp.zeta(2 * j, 1, 1) / 4 ** j
                   for j in range(1, mp.prec // 4 + 2))


def _kolbig_reference(digits):
    # Kolbig: -(2/pi)(gamma + log 2 pi + 2 S1)
    return -(2 / mp.pi) * (_glog() + 2 * _kolbig_s1_reference(digits))


def _sondow_half(digits):
    # sum 2^-(n-1) (1/n - log(1+1/n)), its rest below 2^-n
    return mp.fsum(mpf(2) ** (1 - n) * (mpf(1) / n - mp.log1p(mpf(1) / n))
                   for n in range(1, mp.prec + 10))


def _at_workprec(series):
    """A private series called at the working precision its caller sets."""
    def call(cfg):
        with cfg.workprec(40):
            return series(cfg)
    return call


# name: (call on a config, reference at the ambient precision given digits)
ROUTES = {
    "log_gamma": (lambda cfg: log_gamma(X, cfg),
                  lambda d: mp.loggamma(X)),
    "digamma": (lambda cfg: digamma(X, cfg), lambda d: mp.digamma(X)),
    "polygamma 2": (lambda cfg: polygamma(2, X, cfg),
                    lambda d: mp.polygamma(2, X)),
    "bourguet_log_gamma": (lambda cfg: bourguet_log_gamma(X, cfg),
                           lambda d: mp.loggamma(X)),
    "zeta_hasse deriv 1": (lambda cfg: zeta_hasse(S_LEFT, X, 1, cfg),
                           lambda d: mp.zeta(S_LEFT, X, 1)),
    "zeta_hasse s=-41/3": (lambda cfg: zeta_hasse(S_NEGATIVE, X, 0, cfg),
                           lambda d: mp.zeta(S_NEGATIVE, X)),
    "zeta_fourier": (lambda cfg: zeta_fourier(S_LEFT, X, cfg),
                     lambda d: mp.zeta(S_LEFT, X)),
    "zeta_prime0 fourier": (lambda cfg: zeta_prime0(X, "fourier", cfg),
                            lambda d: mp.zeta(0, X, 1)),
    "zeta_doubleprime0 fourier": (
        lambda cfg: zeta_doubleprime0(X, "fourier", cfg),
        lambda d: mp.zeta(0, X, 2)),
    "zeta_srivastava_choi": (lambda cfg: zeta_srivastava_choi(S_RIGHT, X, cfg),
                             lambda d: mp.zeta(S_RIGHT, X)),
    "poisson_zeta": (lambda cfg: poisson_zeta(S_RIGHT, X, cfg),
                     lambda d: mp.zeta(S_RIGHT, X)),
    "hasse_gamma 0": (lambda cfg: hasse_gamma(0, X, cfg),
                      lambda d: -mp.digamma(X)),
    "hasse_gamma 1": (lambda cfg: hasse_gamma(1, X, cfg), _stieltjes1),
    "digamma_hasse_series": (lambda cfg: digamma_hasse_series(X, cfg),
                             lambda d: mp.digamma(X)),
    "bell_series_gamma 1": (lambda cfg: bell_series_gamma(1, X, cfg),
                            _stieltjes1),
    "briggs_gamma 1": (lambda cfg: briggs_gamma(1, X, cfg), _stieltjes1),
    "_kolbig_s1": (_at_workprec(fourier._kolbig_s1), _kolbig_s1_reference),
    "_kolbig_s2": (_at_workprec(fourier._kolbig_s2),
                   lambda d: 2 * _kolbig_s1_reference(d)),
    "kolbig_check I": (lambda cfg: fourier.kolbig_check(cfg)[2],
                       _kolbig_reference),
    "ramanujan_exp_sum": (ramanujan_exp_sum,
                          lambda d: (mp.log(4 / mp.pi) / 4
                                     + mp.loggamma(mpf(3) / 4) - mp.pi / 12)),
    "sondow_gamma z=1/2": (lambda cfg: sondow_gamma(mpf(1) / 2, cfg),
                           _sondow_half),
    "sondow_gamma z=1": (lambda cfg: sondow_gamma(1, cfg),
                         lambda d: +mp.euler),
    "kummer_log_gamma": (lambda cfg: kummer_log_gamma(X, cfg),
                         lambda d: mp.loggamma(X)),
    "gamma1_fourier": (lambda cfg: gamma1_fourier(X, cfg), _stieltjes1),
    "hurwitz_zeta_em s=3": (lambda cfg: hurwitz_zeta_em(3, X, 0, cfg),
                            lambda d: mp.zeta(3, X)),
    "hurwitz_zeta_em s=3 deriv 3": (
        lambda cfg: hurwitz_zeta_em(3, X, 3, cfg),
        lambda d: mp.zeta(3, X, 3)),
    "hurwitz_zeta_em s=-21/2": (lambda cfg: hurwitz_zeta_em(S_EM, X, 0, cfg),
                                lambda d: mp.zeta(S_EM, X)),
    "hurwitz_zeta_em s=1+2^-40": (
        lambda cfg: hurwitz_zeta_em(S_POLE, X, 0, cfg),
        lambda d: mp.zeta(S_POLE, X)),
    "em_gamma 1": (lambda cfg: em_gamma(1, X, cfg), _stieltjes1),
    "em_gamma 10": (lambda cfg: em_gamma(10, X, cfg),
                    lambda d: mp.stieltjes(10, X)),
    "digamma x=1e-30": (lambda cfg: digamma(X_TINY, cfg),
                        lambda d: mp.digamma(X_TINY)),
    "hurwitz_zeta_em s=-1000 x=3/10": (
        lambda cfg: hurwitz_zeta_em(-1000, X_TENTHS, 0, cfg),
        lambda d: mp.zeta(-1000, X_TENTHS)),
    "sondow_gamma circle series": (
        lambda cfg: sondow_gamma(CIRCLE, cfg),
        lambda d: sondow_gamma(CIRCLE, PrecisionConfig(digits=d + 40),
                               route="2q").value),
    "sondow_gamma circle 2q": (
        lambda cfg: sondow_gamma(CIRCLE, cfg, route="2q"),
        lambda d: sondow_gamma(CIRCLE, PrecisionConfig(digits=d + 40)).value),
}


def _timed(call, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = call()
        best = min(best, time.perf_counter() - t0)
    return res, best


def _cold(call):
    """Seconds of one call on empty Hasse tail caches."""
    for name in HASSE_CACHES:
        getattr(hurwitz, name).cache_clear()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _row(res, best, reference, digits):
    # 40 digits beyond the request, or beyond the claim where that is finer
    # relative to the value (s = -1000: 1e-1800 relative at 20 digits)
    finer = digits
    if res.value and res.err_estimate:
        finer = max(digits, int(mp.log10(abs(res.value) / res.err_estimate)))
    with mp.workdps(finer + 40):
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
    parser.add_argument("--only", action="append", choices=sorted(ROUTES),
                        help="time just this route (repeatable)")
    args = parser.parse_args()
    rows = []
    for digits in DIGITS:
        cfg = PrecisionConfig(digits=digits)
        if args.only:
            for name in args.only:
                rows.append(_route_row(name, digits, cfg, args.repeat))
            continue
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
        for name in ROUTES:
            if name in SLOW_ROUTES and digits != 20:
                continue
            rows.append(_route_row(name, digits, cfg, args.repeat))
    print(json.dumps({"rows": rows}, indent=1))


def _route_row(name, digits, cfg, repeat):
    call, reference = ROUTES[name]
    row = {"route": name, "digits": digits}
    if name.startswith(HASSE_ROUTES):
        row["cold_seconds"] = _cold(lambda: call(cfg))
    res, best = _timed(lambda: call(cfg), repeat)
    row.update(_row(res, best, lambda: reference(digits), digits))
    return row


if __name__ == "__main__":
    main()
