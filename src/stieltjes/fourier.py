"""Trigonometric-series identities: the series-differentiation transform,
the log-gamma and Stieltjes Fourier expansions, and the generalized Euler
constant function on the unit circle.

Every conditionally convergent sum routes through
:func:`stieltjes.kernels.sum_trig_averaged` (a direct head and an
Euler-Abel transform of the tail); no evaluator implements its own
summation.  The sums run to the requested digits, at a cost of
O(bits / sin pi x) terms for any x.  Each evaluator computes one side of
an identity: a sum returns the kernel's ``SeriesResult``, a closed form
its value.  Which two sides meet, and within which tolerance, is decided
by the suite table, :data:`stieltjes.suites.CATALOGUE`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from mpmath import mp, mpc, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real)
from .kernels import hurwitz_zeta_em, integrate_adaptive, sum_trig_averaged
from .constants import hasse_gamma
from .hurwitz import zeta_doubleprime0
from . import gammafuncs


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


def kummer_log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) on (0,1) by Kummer's series: an elementary part plus
    (1/pi) sum log n/n sin(2 pi n x).  The claim is the sine sum's over pi,
    plus the rounding of the elementary part."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("expansion valid on (0,1) only")
        sine = sum_trig_averaged(lambda n: mp.log(n) / n if n > 1 else mpf(0),
                                 "sin", x, cfg)
        elementary = (mp.log(mp.pi / mp.sin(mp.pi * x)) / 2
                      + (mp.euler + mp.log(2 * mp.pi)) * (mpf(1) / 2 - x))
        value = elementary + sine.value / mp.pi
        err = (sine.err_estimate / mp.pi
               + 8 * mpf(2) ** -mp.prec * (abs(elementary) + abs(value)))
        return SeriesResult(value, err, sine.terms_used, cfg.tol())


def series_316(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} log(1+1/n) sin((2n+1) pi x) on (0,1)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("valid on (0,1) only")
        return sum_trig_averaged(lambda n: mp.log(1 + mpf(1) / n), "sin", x,
                                 cfg, odd_multiples=True)


def wallis_alternating(cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log(pi/2) = sum (-1)^(n+1) log(1+1/n) = sum -log(1+1/n) cos(pi n),
    by the trigonometric kernel at x = 1/2: log(1+1/n) is completely
    monotone, so the remainder is bounded."""
    return sum_trig_averaged(lambda n: -mp.log(1 + mpf(1) / n), "cos",
                             mpf(1) / 2, cfg)


def deninger_f(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """f(x) = sum_{n>=2} log n/n cos(2 pi n x) on (0,1)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("valid on (0,1) only")
        return sum_trig_averaged(lambda n: mp.log(n) / n if n > 1 else mpf(0),
                                 "cos", x, cfg)


def deninger_closed(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """f(x) of :func:`deninger_f` by its closed form, (zeta''(0, x) +
    zeta''(0, 1-x))/2 + (gamma + log 2 pi) log(2 sin pi x)."""
    with cfg.workprec(40):
        x = as_real(x)
        return ((zeta_doubleprime0(x, cfg=cfg).value
                 + zeta_doubleprime0(1 - x, cfg=cfg).value) / 2
                + (mp.euler + mp.log(2 * mp.pi))
                * mp.log(2 * mp.sin(mp.pi * x)))


def landau_f_functional(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """f(2x) - f(x) - log 2 log(2 sin 2 pi x) on 0 < x < 1/2, f by its
    closed form: Landau's functional equation makes it f(x + 1/2)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < mpf(1) / 2:
            raise DomainError("x must lie in (0, 1/2)")
        if min(x, mpf(1) / 2 - x) < mpf(10) ** -3:
            raise DomainError("x too close to the log(2 sin 2 pi x) poles")
        return (deninger_closed(2 * x, cfg) - deninger_closed(x, cfg)
                - mp.log(2) * mp.log(2 * mp.sin(2 * mp.pi * x)))


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
        return SeriesResult(+value, +err, t_sin.terms_used + t_cos.terms_used,
                            cfg.tol())


def series_325_family(x, which: str, cfg: PrecisionConfig = DEFAULT_CFG
                      ) -> mpf:
    """Closed forms of the log(1+1/n) trigonometric family on (0,1).

    ``which`` selects the series: "3.25" sum log(1+1/n) cos((2n+1) pi x) and,
    at an exact rational x, "3.27" the same in log Gamma(j/q); "3.28"
    sum log(1+1/n) cos(2 pi n x) and "3.29" its sine companion.  All but
    3.27 are in gamma_1(1-x) - gamma_1(x), by the Hasse route.
    """
    with cfg.workprec(40):
        if which == "3.27":
            r = Fraction(x)
            if not 0 < r < 1:
                raise DomainError("rational x must lie in (0,1)")
            p, q = r.numerator, r.denominator
            value = mp.log(q) * mp.cospi(mpf(p) / q)
            gsum = mpf(0)
            for j in range(1, q):
                gsum += (gammafuncs.log_gamma(mpf(j) / q, cfg).value
                         * mp.sinpi(mpf(2 * j * p) / q))
            return value - 2 * mp.sinpi(mpf(p) / q) * gsum
        if which not in ("3.25", "3.28", "3.29"):
            raise ValueError(f"unknown family member {which!r}")
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("x must lie in (0,1)")
        sx, cx = mp.sin(mp.pi * x), mp.cos(mp.pi * x)
        g1_diff = (hasse_gamma(1, 1 - x, cfg).value
                   - hasse_gamma(1, x, cfg).value)
        if which == "3.25":
            return g1_diff * sx / mp.pi - (mp.euler + mp.log(2 * mp.pi)) * cx
        psi = gammafuncs.digamma(x, cfg).value * sx + mp.pi / 2 * cx
        if which == "3.28":
            return (g1_diff * sx * cx / mp.pi - (mp.euler + mp.log(2 * mp.pi))
                    - psi * sx)
        return -g1_diff * sx ** 2 / mp.pi - psi * cx


def _kolbig_s1(cfg) -> SeriesResult:
    """S1 = sum_{n>=2} log n/(4n^2 - 1) = -sum_j zeta'(2j, 1)/4^j.  A term is
    at most 1/16 of the one before, so the rest is at most 1/15 of the last."""
    S1 = err = mpf(0)
    j = 1
    tol = cfg.tol() * mpf(10) ** -2
    while True:
        z = hurwitz_zeta_em(2 * j, 1, 1, cfg)
        term = -z.value / mpf(4) ** j
        S1 += term
        err += z.err_estimate / mpf(4) ** j
        if abs(term) < tol:
            break
        j += 1
    err += abs(term) / 15 + j * mpf(2) ** -mp.prec * abs(S1)
    return SeriesResult(S1, err, j, cfg.tol())


def _kolbig_s2(cfg) -> SeriesResult:
    """S2 = sum_{n>=1} log(1+1/n)/(2n+1): N = 40 terms, then the tail
    sum_k c_k zeta(k, N+1), c_k = (-1)^k sum_{i<k} 2^(i-k)/i.  As |c_k| < 1
    and zeta(k, N+1) <= (N+1)^-k (1 + (N+1)/(k-1)), the terms past the last
    one summed, k, add up to at most (N+1)^-k (1 + (N+1)/k) / N."""
    N = 40
    head = mp.fsum(mp.log(1 + mpf(1) / n) / (2 * n + 1)
                   for n in range(1, N + 1))
    tol = cfg.tol() * mpf(10) ** -2
    tail = err = mpf(0)
    k = 2
    while True:
        c_k = (-1) ** k * sum(Fraction(1, i * 2 ** (k - i))
                              for i in range(1, k))
        z = hurwitz_zeta_em(k, N + 1, 0, cfg)
        c = mpf(c_k.numerator) / c_k.denominator
        term = c * z.value
        tail += term
        err += abs(c) * z.err_estimate
        if abs(term) < tol and k > 4:
            break
        k += 1
    err += (mpf(N + 1) ** -k * (1 + mpf(N + 1) / k) / N
            + (N + k) * mpf(2) ** -mp.prec * (head + abs(tail)))
    return SeriesResult(head + tail, err, N + k - 1, cfg.tol())


def kolbig_check(cfg: PrecisionConfig = DEFAULT_CFG):
    """The sides (S1, S2, I) of Kolbig's identity, each a ``SeriesResult``:
    I = int_0^1 psi(t) sin(pi t) dt = -(2/pi)(g + 2 S1) = -(2/pi)(g + S2),
    g = gamma + log 2 pi, S1 and S2 as in _kolbig_s1 and _kolbig_s2."""
    with cfg.workprec(40):
        quad = integrate_adaptive(
            lambda t: gammafuncs.digamma(t, cfg).value * mp.sin(mp.pi * t)
            if 0 < t < 1 else mpf(0), 0, 1, cfg)
        return _kolbig_s1(cfg), _kolbig_s2(cfg), quad


# ---------------------------------------------------------------------------
# Generalized Euler constant function gamma(z)
# ---------------------------------------------------------------------------

def _euler_coeff(n: int) -> mpf:
    """a_n = 1/n - log(1+1/n) ~ 1/(2n^2), whose two terms cancel in their
    leading log2(2n) bits: formed once with 2 log2(n) + 8 extra bits and
    rounded back to the working precision."""
    with mp.workprec(mp.prec + 2 * n.bit_length() + 8):
        a = mpf(1) / n - mp.log1p(mpf(1) / n)
    return +a


def _sondow_power_series(z, cfg) -> SeriesResult:
    """gamma(z) for real |z| <= 1, z != -1, by the defining sum; z = 1 by a
    head of 40 terms and the tail sum_k (-1)^k zeta(k, 41) / k."""
    if abs(z) > 1:
        raise DomainError("|z| <= 1 required for the series route")
    tol = cfg.tol() * mpf(10) ** -2
    if z == 1:
        N = 40
        acc = mp.fsum(_euler_coeff(n) for n in range(1, N + 1))
        err = mpf(0)
        k = 2
        while True:
            zk = hurwitz_zeta_em(k, N + 1, 0, cfg)
            t = (-1) ** k * zk.value / k
            acc += t
            err += zk.err_estimate / k
            if abs(t) < tol or k > 200:
                break
            k += 1
        # alternating with falling terms: the remainder is below |t|
        err += abs(t) + (N + k + 32) * mpf(2) ** -mp.prec * abs(acc)
        return SeriesResult(+acc, +err, N + k - 1, cfg.tol())
    acc = mpf(0)
    mag = mpf(0)
    zp = mpf(1)
    n = 1
    while True:
        t = zp * _euler_coeff(n)
        acc += t
        mag += abs(t)
        if abs(zp) / (n + 1) ** 2 < tol:
            break
        zp *= z
        n += 1
    # 0 < 1/k - log(1 + 1/k) < 1/(2k^2) bounds the terms beyond n
    rest = abs(zp * z) / (2 * (n + 1) ** 2 * (1 - abs(z)))
    err = rest + (n + 32) * mpf(2) ** -mp.prec * mag
    return SeriesResult(+acc, +err, n, cfg.tol())


def _sondow_circle(z: Fraction, cfg) -> SeriesResult:
    """gamma(omega), omega = exp(i pi p/q): (C + i S) e^(-i pi p/q) for the
    cosine and sine sums C, S of the coefficients at x = p/(2q)."""
    theta = mpf(z.numerator) / z.denominator
    C = sum_trig_averaged(_euler_coeff, "cos", theta / 2, cfg)
    # at z = -1 the sine series sin(pi n) a_n vanishes term by term
    S = (SeriesResult(mpf(0), mpf(0), 0, cfg.tol()) if z == 1 else
         sum_trig_averaged(_euler_coeff, "sin", theta / 2, cfg))
    re = C.value * mp.cospi(theta) + S.value * mp.sinpi(theta)
    im = S.value * mp.cospi(theta) - C.value * mp.sinpi(theta)
    err = (C.err_estimate + S.err_estimate
           + 8 * mpf(2) ** -mp.prec * (abs(C.value) + abs(S.value)))
    return SeriesResult(mpc(+re, +im), err, C.terms_used + S.terms_used,
                        cfg.tol())


def _sondow_2q(z: Fraction, cfg) -> SeriesResult:
    """The finite form in log Gamma(k/(2q)), its error from the engine's."""
    p, q = z.numerator, z.denominator
    omega = mp.expjpi(mpf(p) / q)
    lg = [gammafuncs.log_gamma(mpf(k) / (2 * q), cfg)
          for k in range(1, 2 * q + 2)]
    total = -mp.log(1 - omega) / omega
    for n in range(1, 2 * q + 1):
        total += omega ** (n - 1) * (lg[n].value - lg[n - 1].value)
    # each log Gamma enters two terms at most, with |omega| = 1
    eps = 16 * (q + 2) * mpf(2) ** -mp.prec
    err = eps * abs(total) + sum(2 * r.err_estimate + 2 * eps * abs(r.value)
                                 for r in lg)
    return SeriesResult(+total, err, sum(r.terms_used for r in lg), cfg.tol())


def sondow_gamma(z: Union[mpf, float, int, Fraction],
                 cfg: PrecisionConfig = DEFAULT_CFG,
                 route: str = "series") -> SeriesResult:
    """Generalized Euler constant gamma(z) = sum z^(n-1)[1/n - log(1+1/n)].

    Real ``z`` in [-1, 1] is taken literally; a ``Fraction`` p/q in (0, 1]
    selects the unit-circle point omega = exp(i pi p/q), where the value is
    complex (p/q = 1 is z = -1).  Routes: "series" (the defining sum, by the
    trigonometric kernel on the circle and at z = -1), "integral" (real
    z <= 1), "2q"
    (finite log-gamma form, Fraction only).  The error estimate comes from
    the kernels and tails each route sums, and their rounding.
    """
    on_circle = isinstance(z, Fraction)
    if on_circle and not 0 < z <= 1:
        raise DomainError("angle p/q must lie in (0, 1]")
    with cfg.workprec(40):
        if route == "series":
            if on_circle:
                return _sondow_circle(z, cfg)
            z = as_real(z)
            if z != -1:
                return _sondow_power_series(z, cfg)
            res = _sondow_circle(Fraction(1), cfg)
            return SeriesResult(res.value.real, res.err_estimate,
                                res.terms_used, res.tol)
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

            return integrate_adaptive(f, 0, 1, cfg)
        if route == "2q":
            if not on_circle:
                raise DomainError("2q route takes a Fraction angle p/q")
            return _sondow_2q(z, cfg)
        raise ValueError(f"unknown route {route!r}")
