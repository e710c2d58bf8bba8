"""Generalized Stieltjes constants gamma_m(x) by the routes below, plus the
derivative, reflection and functional-equation identities built on them.

Routes (the ``gamma_m`` rows of :data:`stieltjes.routes.TABLE`):

* ``em``             -- the default: the Euler-Maclaurin engine at s = 1,
                        sum_k log^m(k+x)/(k+x) with the tail integral taken
                        as its finite part (``kernels._em_log_power_sum``).
* ``hasse``          -- binomial double series (exact head + analytic tail),
                        kept as an independent cross-check.
* ``bell``           -- factorial expansion with complete-Bell-polynomial
                        weights over Hurwitz zeta s-derivatives, summed
                        directly past a shift of x with a proven
                        remainder bound.
* ``briggs``         -- cosine-integral representation (m in {0,1}),
                        its sum over n rotated onto the imaginary axis
                        and summed as one integral by
                        ``gauss.sum_oscillatory``.
* ``laurent_oracle`` -- the definition limit with an Euler-Maclaurin tail;
                        deliberately shares no code with the other routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import iv, mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real, ball, combine, require_positive, shift_up)
from .kernels import (_em_log_power_sum, hurwitz_zeta_em, integrate_adaptive,
                      sum_majorized)
from .hurwitz import _hasse_parts, zeta_doubleprime0
from . import gammafuncs, routes

# where the Bell route shifts x before its series: a shift step costs a log,
# a term m + 1 EM calls and gains log2(x) bits; 64-256 cost least at 20-100
# digits
SHIFT_FLOOR = 64


def laurent_oracle(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) straight from the defining limit with an EM tail.

    lim_N [ sum_{k<=N} log^m(k+x)/(k+x) - log^(m+1)(N+x)/(m+1) ], the tail
    beyond a cutoff M corrected by Bernoulli terms.  Kept self-contained so
    it can serve as the independent oracle for every production route.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    with cfg.workprec(40):
        x = require_positive(x)
        M = max(16, int(cfg.digits * 0.8))
        total = mpf(0)
        for k in range(M):
            L = mp.log(k + x)
            total += L ** m / (k + x)
        LM = mp.log(M + x)
        total -= LM ** (m + 1) / (m + 1)
        total += LM ** m / (M + x) / 2
        # Bernoulli corrections with f(t) = log^m(t+x)/(t+x); the polynomial
        # pieces follow P_{r+1} = P_r' - (1+r) P_r in L = log(t+x)
        P = [mpf(0)] * (m + 1)
        P[m] = mpf(1)
        r = 0
        prev = mpf("inf")
        last = mpf(0)
        tol = cfg.tol() * mpf(10) ** (-4)
        while r < 160:
            Pn = [mpf(0)] * (m + 1)
            for d in range(m + 1):
                v = -(1 + r) * P[d]
                if d + 1 <= m:
                    v += (d + 1) * P[d + 1]
                Pn[d] = v
            P = Pn
            r += 1
            if r % 2 == 0:
                continue
            u = (r + 1) // 2
            pv = mpf(0)
            for d in range(m, -1, -1):
                pv = pv * LM + P[d]
            # the envelope sum |P_d| LM^d does not dip where pv nears zero
            env = mpf(0)
            for d in range(m, -1, -1):
                env = env * LM + abs(P[d])
            weight = (mp.bernoulli(2 * u) / mp.factorial(2 * u)
                      * (M + x) ** (-1 - r))
            last = abs(weight) * env
            if last > prev:
                break
            total -= weight * pv
            prev = last
            if last < tol * (1 + abs(total)):
                break
        err = (last + mpf(10) ** (-cfg.digits - 4)) * 4
        return SeriesResult(+total, +err, M + r, cfg.tol())


def em_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) from the Euler-Maclaurin engine with P = L^m at s = 1."""
    if m < 0:
        raise DomainError("m must be >= 0")
    with cfg.workprec(40):
        x = require_positive(x)
        return _em_log_power_sum([0] * m + [1], 1, x, cfg)


def hasse_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) = -1/(m+1) sum_n 1/(n+1) sum_k C(n,k)(-1)^k log^(m+1)(k+x)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    with cfg.workprec(40):
        return combine(lambda g: -g / (m + 1),
                       _hasse_parts([m + 1], 0, x, cfg)[m + 1], tol=cfg.tol())


def bell_series_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) = -log^(m+1)(x)/(m+1) + (-1)^(m+1) sum_{n>=1} (-1)^n/(n+1)
    sum_k C(m,k) Y_k(n) zeta^(m-k)(n+1, x), Y_k(n) = k! e_k(1, ..., 1/n).

    x is shifted up to ``SHIFT_FLOOR`` by gamma_m(x) = gamma_m(x+1) +
    log^m(x)/x, then the series is summed by ``kernels.sum_majorized``:
    e_k runs in ``iv`` and each zeta^(j) enters as its ball, so every term
    holds its own rounding.  The remainder: for x >= 1 each summand of
    zeta^(j)(n+2, x) is at most 1/x times that of zeta^(j)(n+1, x), and
    Y_k(n+1)/Y_k(n) = 1 + e_(k-1)(n)/((n+1) e_k(n)) falls with n (Newton's
    inequalities), so past term n the k-th parts fall by rho_k per term.
    ``terms_used`` counts shift steps plus series terms.  The cap m <= 6
    limits the cost: each term takes m + 1 EM calls whose own cost grows
    with m.
    """
    if not 0 <= m <= 6:
        raise DomainError("bell route implemented for 0 <= m <= 6")
    with cfg.workprec(40):
        x = require_positive(x)
        x, shift, steps = shift_up(x, lambda v: iv.log(v) ** m / v,
                                   SHIFT_FLOOR)
        weights = [math.comb(m, k) * math.factorial(k) for k in range(m + 1)]
        e = [[iv.mpf(1)] + [iv.mpf(0)] * m]  # e_k(1, ..., 1/n) at n = 0

        def term(n):
            while len(e) < n + 2:  # up to e[n + 1]
                e.append(_elementary_step(e[-1], len(e)))
            zs = [ball(hurwitz_zeta_em(n + 1, x, m - k, cfg))
                  for k in range(m + 1)]
            t = (-1) ** (m + 1 + n) * sum(
                w * ek * z for w, ek, z in zip(weights, e[n], zs)) / (n + 1)
            nxt = e[n + 1]
            tail = iv.mpf(0)
            for k, z in enumerate(zs):
                # an undecided comparison means no ratio to go by yet
                if not nxt[k] > 0:
                    return t, mp.inf
                rho = (1 + (nxt[k - 1] / ((n + 2) * nxt[k]) if k else 0)) / x
                if not rho < 1:
                    return t, mp.inf
                first = weights[k] * nxt[k] / (n + 2) * abs(z) / x
                tail += first / (1 - rho)
            return t, mpf(tail.b)

        head = -iv.log(x) ** (m + 1) / (m + 1) + shift
        series = sum_majorized(term, mpf(head.mid), cfg)
        return combine(lambda t: head + t, series, tol=cfg.tol(),
                       terms=steps + series.terms_used)


def _elementary_step(e, n: int):
    """e_k(1, ..., 1/n) for k < len(e) from e_k(1, ..., 1/(n-1))."""
    return [e[0]] + [e[k] + e[k - 1] / n for k in range(1, len(e))]


def briggs_gamma(m: int, x,
                 cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) from the cosine-integral representation, m in {0, 1}.

    log^m(x)/(2x) - log^(m+1)(x)/(m+1) plus twice the cosine sum of
    gauss.sum_oscillatory with P = L^m and s = 1; x < 1 is shifted up by
    gamma_m(x) = gamma_m(x+1) + log^m(x)/x.
    """
    from .gauss import sum_oscillatory
    if m not in (0, 1):
        raise DomainError("oscillatory route implemented for m in {0, 1}")
    with cfg.workprec(40):
        x = require_positive(x)
        x, shift, _ = shift_up(x, lambda v: iv.log(v) ** m / v)
        Lx = iv.log(x)
        base = Lx ** m / (2 * x) - Lx ** (m + 1) / (m + 1) + shift
        return combine(lambda osc: base + 2 * osc,
                       sum_oscillatory([0] * m + [1], 1, x, "cos", cfg),
                       tol=cfg.tol())


def stieltjes_gamma(m: int, x=1, method: str = "em",
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) by the route ``method`` (``auto``: ``em``)."""
    return routes.run("gamma_m", method, cfg, m=m, x=x)


def digamma_hasse_series(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi(x) from the binomial double series (the m=0 route, sign flipped)."""
    with cfg.workprec(40):
        return _hasse_parts([1], 0, x, cfg)[1]


def coffey_integrand(n: int, x):
    """v -> (1 - v^(1/x))^n / log v on (0,1), 0 elsewhere: the integrand of
    :func:`coffey_difference_integral` in v = u^x, bounded at both ends."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x = as_real(x)

    def f(v):
        if v <= 0 or v >= 1:
            return mpf(0)
        return (1 - v ** (1 / x)) ** n / mp.log(v)

    return f


def coffey_difference_integral(n: int, x, cfg: PrecisionConfig = DEFAULT_CFG
                               ) -> SeriesResult:
    """int_0^1 u^(x-1)(1-u)^n / log u du, which equals
    sum_k C(n,k)(-1)^k log(k+x): the quadrature's result."""
    with cfg.workprec(40):
        return integrate_adaptive(coffey_integrand(n, x), 0, 1, cfg)


def gamma1_prime(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_1'(x) = zeta'(2, x) + zeta(2, x) = sum_k (1 - log(k+x))/(k+x)^2,
    negative for all x >= e: one run of the EM engine on that sum, its
    result and claim."""
    with cfg.workprec(40):
        x = require_positive(x)
        return _em_log_power_sum([1, -1], 2, x, cfg)


def _angle_cos(num: Fraction) -> mpf:
    return mp.cospi(mpf(num.numerator) / num.denominator)


def _angle_sin(num: Fraction) -> mpf:
    return mp.sinpi(mpf(num.numerator) / num.denominator)


def _check_rational(r: Fraction) -> Fraction:
    r = Fraction(r)
    if not 0 < r < 1:
        raise DomainError("rational argument must lie in (0,1)")
    return r


def gamma1_rational(r: Fraction, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """Closed form for gamma_1(p/q) in zeta''(0, v/q), log Gamma(v/q) and cot.

    Angles are kept as exact rationals until the final evaluation.  The cot
    term carries a minus sign (the printed source form has the sign wrong;
    verified against the series routes and an independent derivation).
    """
    r = _check_rational(r)
    p, q = r.numerator, r.denominator
    with cfg.workprec(40):
        g = mp.euler
        logq = mp.log(2 * mp.pi * q)
        g1 = em_gamma(1, 1, cfg).value
        total = g1 - (g + mp.log(2 * mp.pi)) * logq - mp.log(q) ** 2 / 2
        for v in range(1, q):
            theta = Fraction(2 * v * p, q)
            cth, sth = _angle_cos(theta), _angle_sin(theta)
            lg = gammafuncs.log_gamma(mpf(v) / q, cfg).value
            total += cth * zeta_doubleprime0(mpf(v) / q, cfg=cfg).value
            total += -2 * (g + logq) * lg * cth
            total += mp.pi * lg * sth
        cot = _angle_cos(r) / _angle_sin(r)
        total -= mp.pi / 2 * (g + logq) * cot
        return +total


def adamchik_reflection(r: Fraction, cfg: PrecisionConfig = DEFAULT_CFG
                        ) -> mpf:
    """gamma_1(1-p/q) - gamma_1(p/q) by its cot / log Gamma closed form."""
    r = _check_rational(r)
    p, q = r.numerator, r.denominator
    with cfg.workprec(40):
        cot = _angle_cos(r) / _angle_sin(r)
        value = mp.pi * (mp.log(2 * mp.pi * q) + mp.euler) * cot
        for j in range(1, q):
            value -= (2 * mp.pi * gammafuncs.log_gamma(mpf(j) / q, cfg).value
                      * _angle_sin(Fraction(2 * j * p, q)))
        return value


def landau_gamma1_functional(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """2(g(2x) - g(1-2x)) - (g(x) - g(1-x)) - 2 pi log 2 cot(2 pi x) on
    0 < x < 1/2, g = gamma_1 by the default route: the first Stieltjes
    functional equation makes it g(x + 1/2) - g(1/2 - x)."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < mpf(1) / 2:
            raise DomainError("x must lie in (0, 1/2)")
        if min(x, mpf(1) / 2 - x) < mpf(10) ** -3:
            raise DomainError("x too close to the cot(2 pi x) poles")

        def g1(v):
            return em_gamma(1, v, cfg).value

        cot2 = mp.cos(2 * mp.pi * x) / mp.sin(2 * mp.pi * x)
        return (2 * (g1(2 * x) - g1(1 - 2 * x)) - (g1(x) - g1(1 - x))
                - 2 * mp.pi * mp.log(2) * cot2)


def ramanujan_exp_sum(cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """S = sum_{n>=1} 1/(n (e^(2 pi n) - 1)) by ``sum_majorized``, each
    term formed in ``iv``.  The terms fall by more than e^(-2 pi) each, so
    the rest is at most 1/500 of the last."""
    with cfg.workprec(40):
        def term(n):
            t = 1 / (n * (iv.exp(2 * iv.pi * n) - 1))
            return t, mpf(t.b) / 500

        return sum_majorized(term, 0, cfg)
