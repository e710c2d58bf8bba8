"""Trigonometric-series identities: the series-differentiation transform,
the log-gamma and Stieltjes Fourier expansions, and the generalized Euler
constant function on the unit circle.

Every conditionally convergent sum routes through
:func:`stieltjes.kernels.sum_trig_averaged` (a direct head and an
Euler-Abel transform of the tail), and every direct series (Kolbig's S1
and S2, Sondow's power series) adds interval terms on a proven remainder
bound in :func:`stieltjes.kernels.sum_majorized`; no evaluator implements
its own summation.  The trigonometric sums run to the requested digits, at
a cost of O(bits / sin pi x) terms for any x.  Each evaluator computes one
side of an identity: a sum returns the kernel's ``SeriesResult``, a closed
form its value.  Which two sides meet is decided by the suite table,
:data:`stieltjes.suites.CATALOGUE`, and whether they agree by
:meth:`stieltjes.core.IdentityReport.build`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from mpmath import iv, mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real, ball, combine)
from .kernels import (hurwitz_zeta_em, integrate_adaptive, sum_majorized,
                      sum_trig_averaged)
from .constants import hasse_gamma
from .hurwitz import zeta_doubleprime0
from . import gammafuncs, routes


def lerch_transform(c, mode: str, x,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=0}(c_n - c_{n+1}) trig((2n+1) pi x) with c_0 = 0: the n = 0
    term -c_1 trig(pi x), plus the rest by the averaged sum.

    This equals f'(x) sin(pi x)/pi for f = sum c_n/n sin(2 pi n x) (sin
    mode) or g'(x) sin(pi x)/pi for the cosine companion.  c(1) enters the
    glue as a point, as every c(n) enters the kernel: the claim does not
    cover the rounding inside ``c``.
    """
    with cfg.workprec(40):
        x = as_real(x)
        rest = sum_trig_averaged(lambda n: c(n) - c(n + 1), mode, x, cfg,
                                 odd_multiples=True)
        trig = (iv.sin if mode == "sin" else iv.cos)(iv.pi * x)
        return combine(lambda r: r - trig * c(1), rest, tol=cfg.tol(),
                       terms=rest.terms_used + 1)


def kummer_log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) on (0,1) by Kummer's series: an elementary part plus
    (1/pi) sum log n/n sin(2 pi n x)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("expansion valid on (0,1) only")
        sine = sum_trig_averaged(lambda n: mp.log(n) / n if n > 1 else mpf(0),
                                 "sin", x, cfg)
        elementary = (iv.log(iv.pi / iv.sin(iv.pi * x)) / 2
                      + (iv.euler + iv.log(2 * iv.pi)) * (0.5 - iv.mpf(x)))
        return combine(lambda t: elementary + t / iv.pi, sine, tol=cfg.tol())


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

        scale = iv.pi / (2 * iv.sin(iv.pi * x))
        return combine(lambda a, b: (a + b) * scale,
                       lerch_transform(c_n, "sin", x, cfg),
                       lerch_transform(d_n, "cos", x, cfg), tol=cfg.tol())


def series_325_family(x, cfg: PrecisionConfig = DEFAULT_CFG) -> tuple:
    """Closed forms of the log(1+1/n) trigonometric family at x in (0,1).

    Returns (3.25, 3.28, 3.29): 3.25 sum log(1+1/n) cos((2n+1) pi x),
    3.28 sum log(1+1/n) cos(2 pi n x) and 3.29 its sine companion.  All
    three are in one gamma_1(1-x) - gamma_1(x), by the Hasse route, and
    the last two in one psi(x) as well.
    """
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("x must lie in (0,1)")
        sx, cx = mp.sin(mp.pi * x), mp.cos(mp.pi * x)
        g1_diff = (hasse_gamma(1, 1 - x, cfg).value
                   - hasse_gamma(1, x, cfg).value)
        glog = mp.euler + mp.log(2 * mp.pi)
        psi = gammafuncs.digamma(x, cfg).value * sx + mp.pi / 2 * cx
        return (g1_diff * sx / mp.pi - glog * cx,
                g1_diff * sx * cx / mp.pi - glog - psi * sx,
                -g1_diff * sx ** 2 / mp.pi - psi * cx)


def series_327_rational(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """3.27: the sum of 3.25, sum log(1+1/n) cos((2n+1) pi x), at an
    exact rational x = p/q in (0,1), in log Gamma(j/q)."""
    with cfg.workprec(40):
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


_S1_DIRECT = 128  # longest direct sum for a term of Kolbig's S1


def _kolbig_s1(cfg) -> SeriesResult:
    """S1 = sum_{n>=2} log n/(4n^2 - 1) = sum_j T_j, by ``sum_majorized``,
    with T_j = -zeta'(2j, 1)/4^j = sum_{n>=2} log n (4n^2)^-j.  A term is at
    most 1/16 of the one before, so the rest is at most 1/15 of the last.

    T_j is the EM engine's until the direct sum to n = M, M <= _S1_DIRECT,
    leaves a rest under tol/16 of log 2 16^-j <= T_j.  The summand falls
    for t >= 2, so that rest is at most 4^-j int_M^inf log t t^-2j dt
    = 4^-j M^(1-2j) (log M/(2j-1) + 1/(2j-1)^2), which enters the direct
    sum, run in ``iv``, as [0, rest].
    """
    log_tol = float(mp.log(cfg.tol()))
    logs = [iv.mpf(0), iv.mpf(0)]  # log n

    def term(j):
        r = 2 * j - 1
        target = log_tol + math.log(math.log(2) / 16) - j * math.log(4)
        M = math.ceil(math.exp(min(-target / r, 60)))  # log factor left out
        while M <= _S1_DIRECT and (math.log(math.log(M) / r + r ** -2)
                                   - r * math.log(M)) > target:
            M += 1
        if M > _S1_DIRECT:
            t = -ball(hurwitz_zeta_em(2 * j, 1, 1, cfg)) / 4 ** j
            return t, mpf(abs(t).b) / 15
        while len(logs) <= M:
            logs.append(iv.log(len(logs)))
        t = sum(logs[n] / (4 * n * n) ** j for n in range(2, M + 1))
        rest = iv.mpf(M) ** -r * (logs[M] / r + iv.mpf(1) / r ** 2) / 4 ** j
        t += iv.mpf([0, rest.b])
        return t, mpf(t.b) / 15

    return sum_majorized(term, 0, cfg)


def _kolbig_s2(cfg) -> SeriesResult:
    """S2 = sum_{n>=1} log(1+1/n)/(2n+1): N = 40 terms, then the tail
    sum_{k>=2} c_k zeta(k, N+1) by ``sum_majorized``, c_k = (-1)^k a_k with
    a_k = sum_{i<k} 2^(i-k)/i, so a_(k+1) = (a_k + 1/k)/2 exactly.  As
    a_k < 1 and zeta(k, N+1) <= (N+1)^-k (1 + (N+1)/(k-1)), the terms past
    term k add up to at most (N+1)^-k (1 + (N+1)/k) / N.  The head, summed
    in ``iv``, joins the tail through ``combine``."""
    N = 40
    logs = [iv.log(n) for n in range(1, N + 2)]  # log(n + 1) at n
    head = sum((logs[n] - logs[n - 1]) / (2 * n + 1) for n in range(1, N + 1))
    a = [Fraction(0), Fraction(0)]  # a_k for k = 0, 1

    def term(n):
        k = n + 1
        a.append((a[-1] + Fraction(1, k - 1)) / 2)
        c = (-1) ** k * iv.mpf(a[k].numerator) / a[k].denominator
        z = ball(hurwitz_zeta_em(k, N + 1, 0, cfg))
        rest = iv.mpf(N + 1) ** -k * (1 + iv.mpf(N + 1) / k) / N
        return c * z, mpf(rest.b)

    tail = sum_majorized(term, mpf(head.mid), cfg)
    return combine(lambda t: head + t, tail, tol=cfg.tol(),
                   terms=N + tail.terms_used)


def _kolbig_bound(c: float, ha: float, beta: float) -> float:
    """log of a majorant of |psi(z) sin(pi z)| on the ellipse with centre
    c and semi-axes ha along the real line and beta across it.

    psi(z) sin(pi z) = psi(z + N) sin(pi z) - sum_{k<N} sin(pi z)/(z + k),
    N the least integer that puts Re(z + N) >= sigma >= 1/2 on E.  From
    psi(w) = -gamma + sum_{k>=0} (w - 1)/((k + 1)(k + w)), |psi(w)| <=
    gamma + |w - 1| (1/sigma + 1) for Re w >= sigma, with gamma < 0.5773.
    With |sin pi z| <= cosh(pi Im z) <= e^(pi |Im z|) and |sin(pi w)/w| <=
    sinh(pi |w|)/|w| <= e^(pi |w|)/(2 |w|), increasing in |w|, every
    factor is largest where |Im z| and |z + k| are, which E bounds by its
    semi-axes."""
    low = c - ha  # least Re z on E
    N = max(0, math.ceil(0.5 - low))
    psi = 0.5773 + (abs(c + N - 1) + ha) * (1 / (low + N) + 1)
    terms = [math.log(psi) + math.pi * beta]
    for k in range(N):
        A = abs(c + k) + ha
        terms.append(math.pi * A - math.log(2 * A))
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def kolbig_check(cfg: PrecisionConfig = DEFAULT_CFG):
    """The sides (S1, S2, I) of Kolbig's identity, each a ``SeriesResult``:
    I = int_0^1 psi(t) sin(pi t) dt = -(2/pi)(g + 2 S1) = -(2/pi)(g + S2),
    g = gamma + log 2 pi, S1 and S2 as in _kolbig_s1 and _kolbig_s2.

    I runs on ``gauss.integrate_analytic``: psi(z) sin(pi z) is entire,
    :func:`_kolbig_bound` is a majorant of it on each panel's ellipse, and
    each node reports psi's claim times |sin pi t|, so the claim is a
    proof up to the floats of the majorant."""
    from .gauss import integrate_analytic

    def f(t):
        psi = gammafuncs.digamma(t, cfg)
        sin = mp.sinpi(t)
        return psi.value * sin, psi.err_estimate * abs(sin)

    with cfg.workprec(40):
        sums = _kolbig_s1(cfg), _kolbig_s2(cfg)
    return (*sums, integrate_analytic(f, 0, 1, _kolbig_bound, cfg))


# ---------------------------------------------------------------------------
# Generalized Euler constant function gamma(z)
# ---------------------------------------------------------------------------

def _euler_coeff(n: int) -> mpf:
    """a_n = 1/n - log(1+1/n) ~ 1/(2n^2) for the trigonometric kernel,
    whose two terms cancel in their leading log2(2n) bits: formed once with
    2 log2(n) + 8 extra bits and rounded back to the working precision."""
    with mp.workprec(mp.prec + 2 * n.bit_length() + 8):
        a = mpf(1) / n - mp.log1p(mpf(1) / n)
    return +a


def _sondow_power_series(z, cfg) -> SeriesResult:
    """gamma(z) for real |z| <= 1, z != -1, by the defining sum on
    ``sum_majorized``, its terms formed in ``iv``; z = 1 by a head of 40
    terms and the tail sum_{k>=2} (-1)^k zeta(k, 41)/k, which alternates
    with falling terms, so its rest is at most the last term, joined
    through ``combine``.  For |z| < 1, 0 < a_k < 1/(2k^2) bounds the rest
    past term n by |z|^n / (2 (n+1)^2 (1 - |z|))."""
    if abs(z) > 1:
        raise DomainError("|z| <= 1 required for the series route")
    w, log_n, power = iv.mpf(z), iv.mpf(0), iv.mpf(1)

    def coeff(n):  # a_n, by log(n+1) - log n, for n = 1, 2, ... in turn
        nonlocal log_n
        prev, log_n = log_n, iv.log(n + 1)
        return 1 / iv.mpf(n) - (log_n - prev)

    if z == 1:
        N = 40
        head = sum(coeff(n) for n in range(1, N + 1))

        def term(n):
            t = (-1) ** (n + 1) * ball(hurwitz_zeta_em(n + 1, N + 1, 0, cfg))
            return t / (n + 1), mpf(abs(t).b) / (n + 1)

        tail = sum_majorized(term, mpf(head.mid), cfg)
        return combine(lambda t: head + t, tail, tol=cfg.tol(),
                       terms=N + tail.terms_used)

    def term(n):
        nonlocal power  # z^(n-1), then z^n
        t, power = power * coeff(n), power * w
        rest = abs(power) / (2 * (n + 1) ** 2 * (1 - abs(w)))
        return t, mpf(rest.b)

    return sum_majorized(term, 0, cfg)


def _sondow_circle(z: Fraction, cfg) -> SeriesResult:
    """gamma(omega), omega = exp(i pi p/q): (C + i S) e^(-i pi p/q) for the
    cosine and sine sums C, S of the coefficients at x = p/(2q)."""
    if not 0 < z <= 1:
        raise DomainError("angle p/q must lie in (0, 1]")
    C = sum_trig_averaged(_euler_coeff, "cos", z / 2, cfg)
    # at z = -1 the sine series sin(pi n) a_n vanishes term by term
    S = (SeriesResult(mpf(0), mpf(0), 0, cfg.tol()) if z == 1 else
         sum_trig_averaged(_euler_coeff, "sin", z / 2, cfg))
    angle = iv.pi * z.numerator / z.denominator
    turn = iv.mpc(iv.cos(angle), -iv.sin(angle))
    return combine(lambda c, s: iv.mpc(c, s) * turn, C, S, tol=cfg.tol())


def _sondow_series(z, cfg) -> SeriesResult:
    """gamma(z) by the defining sum: on the circle and at z = -1 by the
    trigonometric kernel, elsewhere by the power series."""
    with cfg.workprec(40):
        if isinstance(z, Fraction):
            return _sondow_circle(z, cfg)
        z = as_real(z)
        if z != -1:
            return _sondow_power_series(z, cfg)
        res = _sondow_circle(Fraction(1), cfg)
        return SeriesResult(res.value.real, res.err_estimate,
                            res.terms_used, res.tol)


def _sondow_integral(z, cfg) -> SeriesResult:
    """gamma(z) for real z <= 1 by int_0^1 (1 - y + log y) / ((1 - zy)
    log y) dy on the adaptive quadrature."""
    if isinstance(z, Fraction):
        raise DomainError("integral route takes real z only")
    with cfg.workprec(40):
        zr = as_real(z)
        if zr > 1:
            raise DomainError("z <= 1 required (pole of 1/(1-zy))")

        # (1 - y + log y) / ((1 - zy) log y) = (1 - y) k(y) / (1 - zy),
        # k(y) = 1/(1-y) + 1/log y formed past its cancellation at y -> 1
        def f(y):
            if not 0 < y < 1:
                return mpf(0)
            return ((1 - y) * gammafuncs._log_kernel_bracket(y)
                    / (1 - zr * y))

        return integrate_adaptive(f, 0, 1, cfg)


def _sondow_2q(z, cfg) -> SeriesResult:
    """The finite form in log Gamma(k/(2q)), omega = exp(i pi p/q)."""
    if not (isinstance(z, Fraction) and 0 < z <= 1):
        raise DomainError("2q route takes a Fraction angle p/q in (0, 1]")
    p, q = z.numerator, z.denominator
    with cfg.workprec(40):
        lg = [gammafuncs.log_gamma(mpf(k) / (2 * q), cfg)
              for k in range(1, 2 * q + 2)]

        def glue(*L):
            angle = iv.pi * p / q
            omega = iv.mpc(iv.cos(angle), iv.sin(angle))
            total = -iv.log(1 - omega) / omega
            for n in range(1, 2 * q + 1):
                total += omega ** (n - 1) * (L[n] - L[n - 1])
            return total

        return combine(glue, *lg, tol=cfg.tol())


def sondow_gamma(z: Union[mpf, float, int, Fraction],
                 cfg: PrecisionConfig = DEFAULT_CFG,
                 route: str = "series") -> SeriesResult:
    """Generalized Euler constant gamma(z) = sum z^(n-1)[1/n - log(1+1/n)].

    Real ``z`` in [-1, 1] is taken literally; a ``Fraction`` p/q in (0, 1]
    selects the unit-circle point omega = exp(i pi p/q), where the value is
    complex (p/q = 1 is z = -1).  Routes: "series" (the defining sum, by the
    trigonometric kernel on the circle and at z = -1), "integral" (real
    z <= 1), "2q" (finite log-gamma form, Fraction only).  The error
    estimate comes from the kernels and tails each route sums, combined in
    interval arithmetic (:func:`stieltjes.core.combine`) where a route
    glues several.
    """
    return routes.run("sondow_gamma", route, cfg, x=z)
