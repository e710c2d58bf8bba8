"""Trigonometric-series identities: the series-differentiation transform,
the log-gamma and Stieltjes Fourier expansions, and the generalized Euler
constant function on the unit circle.

Every conditionally convergent sum routes through
:func:`stieltjes.kernels.sum_trig_averaged` (a direct head and an
Euler-Abel transform of the tail); no evaluator implements its own
summation.  The sums run to the requested digits, at a cost of
O(bits / sin pi x) terms for any x.  Default verdict tolerances:
``TRIG_TOL`` (1e-4) for the identities whose other side is a zeta''(0, .)
or gamma_1 closed form, 1e-5 or 1e-8 for the rest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, IdentityReport, PrecisionConfig,
                   SeriesResult, as_real)
from .kernels import (hurwitz_zeta_em, integrate_adaptive,
                      sum_alternating_accelerated, sum_trig_averaged)
from .constants import hasse_gamma
from .hurwitz import zeta_doubleprime0
from . import gammafuncs

# verdict tolerance of the log-cosine and log(1+1/n) Stieltjes identities;
# their sides agree to the requested digits, but the tolerance is part of
# every report, so it stays at 1e-4
TRIG_TOL = mpf(10) ** -4


def lerch_transform(c, mode: str, x,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """Averaged sum of the transformed series sum_{n>=0}(c_n - c_{n+1}) trig((2n+1) pi x).

    With c_0 = 0 this equals f'(x) sin(pi x)/pi for f = sum c_n/n sin(2 pi n x)
    (sin mode) or g'(x) sin(pi x)/pi for the cosine companion.
    """
    def diff(n):
        prev = mpf(0) if n == 0 else c(n)
        return prev - c(n + 1)

    return sum_trig_averaged(diff, mode, x, cfg, odd_multiples=True, n0=0)


def kummer_log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG,
                     tolerance=None) -> IdentityReport:
    """log Gamma(x) against its sine-series expansion on (0,1)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("expansion valid on (0,1) only")
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -5
        sine = sum_trig_averaged(lambda n: mp.log(n) / n if n > 1 else mpf(0),
                                 "sin", x, cfg)
        lhs = (mp.log(mp.pi / mp.sin(mp.pi * x)) / 2
               + (mp.euler + mp.log(2 * mp.pi)) * (mpf(1) / 2 - x)
               + sine.value / mp.pi)
        rhs = gammafuncs.log_gamma(x, cfg)
        return IdentityReport.build("kummer-log-gamma", lhs, rhs, tol, x=x)


def series_316(x, cfg: PrecisionConfig = DEFAULT_CFG,
               tolerance=None) -> IdentityReport:
    """sum log(1+1/n) sin((2n+1) pi x) against its digamma closed form."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("valid on (0,1) only")
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -5
        lhs = sum_trig_averaged(lambda n: mp.log(1 + mpf(1) / n), "sin", x,
                                cfg, odd_multiples=True).value
        sx, cx = mp.sin(mp.pi * x), mp.cos(mp.pi * x)
        rhs = -(gammafuncs.digamma(x, cfg) * sx + mp.pi / 2 * cx
                + (mp.euler + mp.log(2 * mp.pi)) * sx)
        return IdentityReport.build("odd-sine-log-series", lhs, rhs, tol,
                                    x=x)


def wallis_alternating(cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log(pi/2) = sum (-1)^(n+1) log(1+1/n) under Euler acceleration."""
    return sum_alternating_accelerated(
        lambda n: (-1) ** (n + 1) * mp.log(1 + mpf(1) / n), cfg)


def _deninger_closed(x, cfg) -> mpf:
    return ((zeta_doubleprime0(x, cfg=cfg).value
             + zeta_doubleprime0(1 - x, cfg=cfg).value) / 2
            + (mp.euler + mp.log(2 * mp.pi)) * mp.log(2 * mp.sin(mp.pi * x)))


def deninger_f(x, cfg: PrecisionConfig = DEFAULT_CFG,
               tolerance=None) -> IdentityReport:
    """sum log n/n cos(2 pi n x) against the zeta''(0,.) closed form."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("valid on (0,1) only")
        tol = mpf(tolerance) if tolerance is not None else TRIG_TOL
        lhs = sum_trig_averaged(lambda n: mp.log(n) / n if n > 1 else mpf(0),
                                "cos", x, cfg).value
        rhs = _deninger_closed(x, cfg)
        return IdentityReport.build("log-cosine-closed-form", lhs, rhs,
                                    tol, x=x)


def landau_f_functional(x, cfg: PrecisionConfig = DEFAULT_CFG,
                        tolerance=None) -> IdentityReport:
    """f(x+1/2) = f(2x) - f(x) - log2 log(2 sin 2 pi x) on 0 < x < 1/2."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < mpf(1) / 2:
            raise DomainError("x must lie in (0, 1/2)")
        if min(x, mpf(1) / 2 - x) < mpf(10) ** -3:
            raise DomainError("x too close to the log(2 sin 2 pi x) poles")
        tol = mpf(tolerance) if tolerance is not None else TRIG_TOL
        lhs = _deninger_closed(x + mpf(1) / 2, cfg)
        rhs = (_deninger_closed(2 * x, cfg) - _deninger_closed(x, cfg)
               - mp.log(2) * mp.log(2 * mp.sin(2 * mp.pi * x)))
        return IdentityReport.build("log-cosine-functional-eq", lhs, rhs,
                                    tol, x=x)


def gamma1_fourier(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_1(x) recovered from its trigonometric expansion (0 < x < 1).

    Verification-grade; the transformed sine and cosine series are divided
    by 2 sin(pi x)/pi, so x needs to stay ~1e-3 away from the endpoints.
    """
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1 or min(x, 1 - x) < mpf(10) ** -3:
            raise DomainError("x must lie in (0,1), away from the endpoints")
        g = mp.euler
        z2 = mp.pi ** 2 / 6

        def c_n(n):
            L = mp.log(2 * mp.pi * n)
            return (L ** 2 + 2 * g * L + (2 * g ** 2 - z2) / 2) / mp.pi

        def d_n(n):
            return mp.log(2 * mp.pi * n) + g

        t_sin = lerch_transform(c_n, "sin", x, cfg)
        t_cos = lerch_transform(d_n, "cos", x, cfg)
        scale = mp.pi / (2 * mp.sin(mp.pi * x))
        value = (t_sin.value + t_cos.value) * scale
        err = (t_sin.err_estimate + t_cos.err_estimate) * abs(scale)
        return SeriesResult(+value, +err,
                            t_sin.terms_used + t_cos.terms_used,
                            bool(t_sin.converged and t_cos.converged
                                 and err <= cfg.tol() * max(1, abs(value))))


def series_325_family(x, which: str, cfg: PrecisionConfig = DEFAULT_CFG,
                      tolerance=None) -> IdentityReport:
    """The log(1+1/n) trigonometric family against its closed forms.

    ``which`` selects the variant: "3.25" (odd cosine), "3.27" (odd cosine at
    an exact rational, log Gamma closed form), "3.28" (cosine), "3.29" (sine).
    """
    with cfg.workprec(40):
        coeff = lambda n: mp.log(1 + mpf(1) / n)
        if which == "3.27":
            r = Fraction(x)
            if not 0 < r < 1:
                raise DomainError("rational x must lie in (0,1)")
            p, q = r.numerator, r.denominator
            xr = mpf(p) / q
            tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -5
            lhs = sum_trig_averaged(coeff, "cos", xr, cfg,
                                    odd_multiples=True).value
            rhs = mp.log(q) * mp.cospi(mpf(p) / q)
            gsum = mpf(0)
            for j in range(1, q):
                gsum += (gammafuncs.log_gamma(mpf(j) / q, cfg)
                         * mp.sinpi(mpf(2 * j * p) / q))
            rhs -= 2 * mp.sinpi(mpf(p) / q) * gsum
            return IdentityReport.build("odd-cosine-rational", lhs, rhs,
                                        tol, x=xr)
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("x must lie in (0,1)")
        tol = mpf(tolerance) if tolerance is not None else TRIG_TOL
        sx, cx = mp.sin(mp.pi * x), mp.cos(mp.pi * x)
        g1_diff = (hasse_gamma(1, 1 - x, cfg).value
                   - hasse_gamma(1, x, cfg).value)
        glog = mp.euler + mp.log(2 * mp.pi)
        if which == "3.25":
            lhs = sum_trig_averaged(coeff, "cos", x, cfg,
                                    odd_multiples=True).value
            rhs = g1_diff * sx / mp.pi - glog * cx
            name = "odd-cosine-stieltjes"
        elif which == "3.28":
            lhs = sum_trig_averaged(coeff, "cos", x, cfg).value
            rhs = (g1_diff * sx * cx / mp.pi - glog
                   - (gammafuncs.digamma(x, cfg) * sx + mp.pi / 2 * cx) * sx)
            name = "cosine-stieltjes"
        elif which == "3.29":
            lhs = sum_trig_averaged(coeff, "sin", x, cfg).value
            rhs = (-g1_diff * sx ** 2 / mp.pi
                   - (gammafuncs.digamma(x, cfg) * sx + mp.pi / 2 * cx) * cx)
            name = "sine-stieltjes"
        else:
            raise ValueError(f"unknown family member {which!r}")
        return IdentityReport.build(name, lhs, rhs, tol, x=x)


def _log_ratio_tail_sum(N: int, cfg) -> mpf:
    """sum_{n>N} log(1+1/n)/(2n+1) by exact asymptotic resummation."""
    # product of the 1/n expansions of log(1+1/n) and 1/(2n+1), coefficients
    # exact rationals; tails become Hurwitz zeta values at integer s
    tol = cfg.tol() * mpf(10) ** -2
    total = mpf(0)
    k = 2
    while k < 200:
        c_k = Fraction(0)
        for i in range(1, k):
            j = k - 1 - i
            c_k += Fraction((-1) ** (i + 1) * (-1) ** j, i * 2 ** (j + 1))
        term = (mpf(c_k.numerator) / c_k.denominator
                * hurwitz_zeta_em(k, N + 1, 0, cfg).value) if c_k else mpf(0)
        total += term
        if abs(term) < tol and k > 4:
            break
        k += 1
    return total


def kolbig_check(cfg: PrecisionConfig = DEFAULT_CFG):
    """Three-way check of the psi(x) sin(pi x) integral and its series forms.

    Returns reports for (a) the equivalence 2 sum log n/(4n^2-1) =
    sum log(1+1/n)/(2n+1), (b) quadrature vs the log-series closed form,
    (c) quadrature vs the integrated odd-sine series form.
    """
    with cfg.workprec(40):
        g2pi = mp.euler + mp.log(2 * mp.pi)
        # S1 = sum_{n>=2} log n/(4 n^2 - 1) via 1/(4n^2-1) = sum_j (4n^2)^-j
        S1 = mpf(0)
        j = 1
        tol = cfg.tol() * mpf(10) ** -2
        while True:
            term = -hurwitz_zeta_em(2 * j, 1, 1, cfg).value / mpf(4) ** j
            S1 += term
            if abs(term) < tol or j > 60:
                break
            j += 1
        # S2 = sum log(1+1/n)/(2n+1), head + exact tail
        N = 40
        S2 = mp.fsum(mp.log(1 + mpf(1) / n) / (2 * n + 1)
                     for n in range(1, N + 1))
        S2 += _log_ratio_tail_sum(N, cfg)
        quad = integrate_adaptive(
            lambda t: gammafuncs.digamma(t, cfg) * mp.sin(mp.pi * t)
            if 0 < t < 1 else mpf(0), 0, 1, cfg)
        kolbig_form = -(2 / mp.pi) * (g2pi + 2 * S1)
        integrated_form = -(2 / mp.pi) * g2pi - (2 / mp.pi) * S2
        rep_eq = IdentityReport.build(
            "kolbig-series-equivalence", 2 * S1, S2, mpf(10) ** -10)
        rep_quad = IdentityReport.build(
            "kolbig-quadrature", quad.value, kolbig_form, mpf(10) ** -8)
        rep_int = IdentityReport.build(
            "kolbig-integrated-series", quad.value, integrated_form,
            mpf(10) ** -8,
            meta="sign of the integral term corrected from the printed form")
        return [rep_eq, rep_quad, rep_int]


# ---------------------------------------------------------------------------
# Generalized Euler constant function gamma(z)
# ---------------------------------------------------------------------------

def _euler_coeff(n: int) -> mpf:
    """a_n = 1/n - log(1+1/n), series form for large n to dodge cancellation."""
    if n < 8:
        return mpf(1) / n - mp.log(1 + mpf(1) / n)
    eps = mpf(2) ** (-mp.prec + 4)
    acc = mpf(0)
    k = 2
    powk = mpf(n) ** (-2)
    while True:
        t = (-1) ** k * powk / k
        acc += t
        if abs(t) < eps * (abs(acc) + eps):
            break
        k += 1
        powk /= n
    return acc


def sondow_gamma(z: Union[mpf, float, int, Fraction],
                 cfg: PrecisionConfig = DEFAULT_CFG,
                 route: str = "auto"):
    """Generalized Euler constant gamma(z) = sum z^(n-1)[1/n - log(1+1/n)].

    Real ``z`` in [-1, 1] is taken literally; a ``Fraction`` p/q selects the
    unit-circle point omega = exp(i pi p/q).  Routes: "series" (defining sum,
    by the trigonometric kernel on the circle), "integral" (real z <= 1), "2q" (finite
    log-gamma form, Fraction only).  Returns (re, im) as mpf.
    """
    with cfg.workprec(40):
        on_circle = isinstance(z, Fraction)
        if route == "auto":
            route = "series"
        if route == "series":
            if on_circle:
                if not 0 < z <= 1:
                    raise DomainError("angle p/q must lie in (0, 1]")
                theta = mp.pi * z.numerator / z.denominator
                x_eff = mpf(z.numerator) / (2 * z.denominator)
                if x_eff == mpf(1) / 2:  # omega = -1: plain alternating series
                    acc = sum_alternating_accelerated(
                        lambda n: (-1) ** (n - 1) * _euler_coeff(n), cfg)
                    return +acc.value, mpf(0)
                C = sum_trig_averaged(_euler_coeff, "cos", x_eff, cfg)
                S = sum_trig_averaged(_euler_coeff, "sin", x_eff, cfg)
                re = C.value * mp.cos(theta) + S.value * mp.sin(theta)
                im = S.value * mp.cos(theta) - C.value * mp.sin(theta)
                return +re, +im
            zr = as_real(z)
            if zr == 1:
                N = 40
                acc = mp.fsum(_euler_coeff(n) for n in range(1, N + 1))
                k = 2
                tol = cfg.tol() * mpf(10) ** -2
                while True:
                    t = (-1) ** k * hurwitz_zeta_em(k, N + 1, 0, cfg).value / k
                    acc += t
                    if abs(t) < tol or k > 200:
                        break
                    k += 1
                return +acc, mpf(0)
            if zr == -1:
                acc = sum_alternating_accelerated(
                    lambda n: (-1) ** (n - 1) * _euler_coeff(n), cfg)
                return +acc.value, mpf(0)
            if abs(zr) > 1:
                raise DomainError("|z| <= 1 required for the series route")
            acc = mpf(0)
            zp = mpf(1)
            tol = cfg.tol() * mpf(10) ** -2
            n = 1
            while True:
                t = zp * _euler_coeff(n)
                acc += t
                if abs(zp) / (n + 1) ** 2 < tol:
                    break
                zp *= zr
                n += 1
            return +acc, mpf(0)
        if route == "integral":
            if on_circle:
                raise DomainError("integral route takes real z only")
            zr = as_real(z)
            if zr > 1:
                raise DomainError("z <= 1 required (pole of 1/(1-zy))")

            def f(y):
                if y <= 0 or y >= 1:
                    return mpf(0)
                v = 1 - y
                if v < mpf("0.5"):
                    num = mpf(0)  # 1 - y + log y = -sum_{k>=2} v^k/k
                    vp = v * v
                    k = 2
                    eps = mpf(2) ** (-mp.prec + 4)
                    while True:
                        t = vp / k
                        num -= t
                        if t < eps:
                            break
                        vp *= v
                        k += 1
                else:
                    num = 1 - y + mp.log(y)
                return num / ((1 - zr * y) * mp.log(y))

            res = integrate_adaptive(f, 0, 1, cfg)
            return +res.value, mpf(0)
        if route == "2q":
            if not on_circle:
                raise DomainError("2q route takes a Fraction angle p/q")
            if not 0 < z <= 1:
                raise DomainError("angle p/q must lie in (0, 1]")
            p, q = z.numerator, z.denominator
            omega = mp.expjpi(mpf(p) / q)
            total = -mp.log(1 - omega) / omega
            for n in range(1, 2 * q + 1):
                total += omega ** (n - 1) * (
                    gammafuncs.log_gamma(mpf(n + 1) / (2 * q), cfg)
                    - gammafuncs.log_gamma(mpf(n) / (2 * q), cfg))
            return +total.real, +total.imag
        raise ValueError(f"unknown route {route!r}")
