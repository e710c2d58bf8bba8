"""Generalized Stieltjes constants gamma_m(x) by five routes, plus the
derivative, reflection and functional-equation identities built on them.

Routes:

* ``em``             -- the default: the Euler-Maclaurin engine at s = 1,
                        sum_k log^m(k+x)/(k+x) with the tail integral taken
                        as its finite part (``kernels._em_log_power_sum``).
* ``hasse``          -- binomial double series (exact head + analytic tail),
                        kept as an independent cross-check.
* ``bell``           -- factorial expansion with complete-Bell-polynomial
                        weights over Hurwitz zeta s-derivatives.
* ``briggs``         -- oscillatory-integral representation (m in {0,1},
                        verification grade), through
                        ``kernels.sum_oscillatory_ibp``.
* ``laurent_oracle`` -- the definition limit with an Euler-Maclaurin tail;
                        deliberately shares no code with the other routes.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, IdentityReport, NonConvergence,
                   PrecisionConfig, PrecisionError, SeriesResult, as_real)
from .kernels import (_em_log_power_sum, hurwitz_zeta_em, integrate_adaptive,
                      sum_alternating_accelerated, sum_oscillatory_ibp)
from .combinatorics import bell_harmonic, binomial
from .hurwitz import _hasse_parts, zeta_doubleprime0
from . import gammafuncs

_BRIGGS_DEFAULT_N = 14


def laurent_oracle(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) straight from the defining limit with an EM tail.

    lim_N [ sum_{k<=N} log^m(k+x)/(k+x) - log^(m+1)(N+x)/(m+1) ], the tail
    beyond a cutoff M corrected by Bernoulli terms.  Kept self-contained so
    it can serve as the independent oracle for every production route.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    with cfg.workprec(40):
        x = as_real(x)
        if not x > 0:
            raise DomainError("x must be positive")
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
        return SeriesResult(+total, +err, M + r, bool(err <= cfg.tol()))


def em_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) from the Euler-Maclaurin engine with P = L^m at s = 1."""
    if m < 0:
        raise DomainError("m must be >= 0")
    with cfg.workprec(40):
        x = as_real(x)
        if not x > 0:
            raise DomainError("x must be positive")
        return _em_log_power_sum([0] * m + [1], 1, x, cfg)


def hasse_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) = -1/(m+1) sum_n 1/(n+1) sum_k C(n,k)(-1)^k log^(m+1)(k+x)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m > 12:
        raise PrecisionError("binomial route capped at m <= 12")
    with cfg.workprec(40):
        parts, err = _hasse_parts([m + 1], 0, as_real(x), cfg)
        value = -parts[m + 1] / (m + 1)
        return SeriesResult(+value, +err / (m + 1), 0,
                            bool(err <= cfg.tol() * 100))


def bell_series_gamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) from the alternating expansion with Bell-polynomial weights.

    Terms couple Y_k of generalized harmonic numbers with zeta derivatives
    zeta^(m-k)(n+1, x); x < 1 is shifted up through the recurrence
    gamma_m(x) = gamma_m(1+x) + log^m(x)/x.
    """
    if not 0 <= m <= 6:
        raise DomainError("bell route implemented for 0 <= m <= 6")
    with cfg.workprec(40):
        x = as_real(x)
        if not x > 0:
            raise DomainError("x must be positive")
        shift = mpf(0)
        while x < 1:
            shift += mp.log(x) ** m / x
            x += 1

        def term(n):
            inner = mpf(0)
            for k in range(m + 1):
                inner += (binomial(m, k) * bell_harmonic(k, n, cfg)
                          * hurwitz_zeta_em(n + 1, x, m - k, cfg).value)
            return (-1) ** n / mpf(n + 1) * inner

        acc = sum_alternating_accelerated(term, cfg, n0=1)
        value = (-mp.log(x) ** (m + 1) / (m + 1)
                 + (-1) ** (m + 1) * acc.value + shift)
        return SeriesResult(+value, acc.err_estimate, acc.terms_used,
                            acc.converged)


def briggs_gamma(m: int, x, N: int = _BRIGGS_DEFAULT_N,
                 cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) from the cosine-integral representation, m in {0, 1}.

    Verification grade (~1e-4 and usually much better):
    log^m(x)/(2x) - log^(m+1)(x)/(m+1) plus twice the cosine sum of
    kernels.sum_oscillatory_ibp with P = L^m and s = 1.
    """
    if m not in (0, 1):
        raise DomainError("oscillatory route implemented for m in {0, 1}")
    with cfg.workprec(40):
        x = as_real(x)
        if not x > 0:
            raise DomainError("x must be positive")
        Lx = mp.log(x)
        base = Lx ** m / (2 * x) - Lx ** (m + 1) / (m + 1)
        osc = sum_oscillatory_ibp([0] * m + [1], 1, x, "cos", N, 0, cfg)
        value = base + 2 * osc.value
        err = 2 * osc.err_estimate + mpf(10) ** (-cfg.digits)
        return SeriesResult(+value, +err, osc.terms_used,
                            bool(err <= mpf(10) ** -4))


_ROUTES = {
    "em": lambda m, x, cfg: em_gamma(m, x, cfg),
    "hasse": lambda m, x, cfg: hasse_gamma(m, x, cfg),
    "bell": lambda m, x, cfg: bell_series_gamma(m, x, cfg),
    "laurent_oracle": lambda m, x, cfg: laurent_oracle(m, x, cfg),
    "briggs": lambda m, x, cfg: briggs_gamma(m, x, cfg=cfg),
}


def stieltjes_gamma(m: int, x=1, method: str = "em",
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """gamma_m(x) by the requested route (em|hasse|bell|laurent_oracle|briggs)."""
    if method not in _ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return _ROUTES[method](m, x, cfg)


def stieltjes_shift(m: int, x, cfg: PrecisionConfig = DEFAULT_CFG,
                    tolerance=None) -> IdentityReport:
    """Residual of gamma_m(x) - gamma_m(1+x) = log^m(x)/x."""
    with cfg.workprec(40):
        x = as_real(x)
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -12
        lhs = em_gamma(m, x, cfg).value - em_gamma(m, x + 1, cfg).value
        rhs = mp.log(x) ** m / x
        meta = "" if m == 0 else "m>=1 generalization (derived, not displayed)"
        return IdentityReport.build(f"shift-m{m}", lhs, rhs, tol, x=x, meta=meta)


def digamma_hasse_series(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi(x) from the binomial double series (the m=0 route, sign flipped)."""
    with cfg.workprec(40):
        parts, err = _hasse_parts([1], 0, as_real(x), cfg)
        return SeriesResult(+parts[1], +err, 0, bool(err <= cfg.tol() * 100))


def coffey_difference_integral(n: int, x,
                               cfg: PrecisionConfig = DEFAULT_CFG,
                               tolerance=None) -> IdentityReport:
    """int_0^1 u^(x-1)(1-u)^n / log u du == sum_k C(n,k)(-1)^k log(k+x)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    with cfg.workprec(40):
        x = as_real(x)
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -10

        def f(u):
            if u <= 0 or u >= 1:
                return mpf(0)
            return u ** (x - 1) * (1 - u) ** n / mp.log(u)

        lhs = integrate_adaptive(f, 0, 1, cfg).value
        rhs = mp.fsum((binomial(n, k) if k % 2 == 0 else -binomial(n, k))
                      * mp.log(k + x) for k in range(n + 1))
        neg_ok = all(f(mpf(u) / 10) < 0 for u in range(1, 10))
        return IdentityReport.build(
            f"coffey-integral-n{n}", lhs, rhs, tol, x=x,
            meta="integrand negative on (0,1)" if neg_ok
            else "WARNING: integrand sign check failed")


def gamma1_prime(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """gamma_1'(x) = zeta'(2,x) + zeta(2,x); negative for all x >= e.

    Also evaluated through the explicit series sum (1-log(k+x))/(k+x)^2 as a
    consistency guard; disagreement raises NonConvergence.
    """
    with cfg.workprec(40):
        x = as_real(x)
        zform = (hurwitz_zeta_em(2, x, 1, cfg).value
                 + hurwitz_zeta_em(2, x, 0, cfg).value)
        series = _em_log_power_sum([mpf(1), mpf(-1)], 2, x, cfg).value
        if abs(zform - series) > cfg.tol() * (1 + abs(zform)) * 10 ** 6:
            raise NonConvergence("zeta-form and explicit series disagree")
        return +zform


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
            lg = gammafuncs.log_gamma(mpf(v) / q, cfg)
            total += cth * zeta_doubleprime0(mpf(v) / q, cfg=cfg).value
            total += -2 * (g + logq) * lg * cth
            total += mp.pi * lg * sth
        cot = _angle_cos(r) / _angle_sin(r)
        total -= mp.pi / 2 * (g + logq) * cot
        return +total


def adamchik_reflection(r: Fraction, cfg: PrecisionConfig = DEFAULT_CFG,
                        tolerance=None) -> IdentityReport:
    """gamma_1(1-p/q) - gamma_1(p/q) against its cot / log Gamma closed form."""
    r = _check_rational(r)
    p, q = r.numerator, r.denominator
    with cfg.workprec(40):
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -8
        g = mp.euler
        lhs = (em_gamma(1, 1 - mpf(p) / q, cfg).value
               - em_gamma(1, mpf(p) / q, cfg).value)
        cot = _angle_cos(r) / _angle_sin(r)
        rhs = mp.pi * (mp.log(2 * mp.pi * q) + g) * cot
        for j in range(1, q):
            rhs -= (2 * mp.pi * gammafuncs.log_gamma(mpf(j) / q, cfg)
                    * _angle_sin(Fraction(2 * j * p, q)))
        return IdentityReport.build(f"reflection-{p}-{q}", lhs, rhs, tol,
                                    x=mpf(p) / q)


def landau_gamma1_functional(x, cfg: PrecisionConfig = DEFAULT_CFG,
                             tolerance=None) -> IdentityReport:
    """First-Stieltjes functional equation on 0 < x < 1/2."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < mpf(1) / 2:
            raise DomainError("x must lie in (0, 1/2)")
        if min(x, mpf(1) / 2 - x) < mpf(10) ** -3:
            raise DomainError("x too close to the cot(2 pi x) poles")
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -6

        def g1(v):
            return em_gamma(1, v, cfg).value

        lhs = g1(x + mpf(1) / 2) - g1(mpf(1) / 2 - x)
        cot2 = mp.cos(2 * mp.pi * x) / mp.sin(2 * mp.pi * x)
        rhs = (2 * (g1(2 * x) - g1(1 - 2 * x)) - (g1(x) - g1(1 - x))
               - 2 * mp.pi * mp.log(2) * cot2)
        return IdentityReport.build("landau-functional", lhs, rhs, tol, x=x)


def ramanujan_exp_sum(cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """S = sum_{n>=1} 1/(n (e^(2 pi n) - 1)); terms die like e^(-2 pi n)."""
    with cfg.workprec(40):
        tol = cfg.tol() * mpf(10) ** -2
        S = mpf(0)
        n = 1
        while True:
            t = 1 / (n * mp.expm1(2 * mp.pi * n))
            S += t
            if t < tol:
                break
            n += 1
        return +S


def coffey_ramanujan_sum(cfg: PrecisionConfig = DEFAULT_CFG):
    """Three reports around the exponential sum S.

    (a) the gamma_1(3/4)-gamma_1(1/4) display against the reflection closed
    form; (b) S against the Gamma(3/4) closed form (matches); (c) S against
    the Gamma(1/4) variant as printed in the source material (recorded as
    failing, annotated).
    """
    with cfg.workprec(40):
        g = mp.euler
        S = ramanujan_exp_sum(cfg)
        tol = mpf(10) ** -10
        quarter = Fraction(1, 4)
        lg14 = gammafuncs.log_gamma(mpf(1) / 4, cfg)
        lg34 = gammafuncs.log_gamma(mpf(3) / 4, cfg)
        coffey = mp.pi * (mp.pi / 3 + g + 4 * S)
        reflection = (mp.pi * (mp.log(8 * mp.pi) + g)
                      - 2 * mp.pi * (lg14 - lg34))
        rep_a = IdentityReport.build("ramanujan-coffey-display", coffey,
                                     reflection, tol, x=mpf(1) / 4)
        closed34 = mp.log(4 / mp.pi) / 4 + lg34 - mp.pi / 12
        rep_b = IdentityReport.build("ramanujan-closed-form", S, closed34, tol,
                                     meta="Gamma(3/4) variant")
        closed14 = mp.log(4 / mp.pi) / 4 + lg14 - mp.pi / 12
        rep_c = IdentityReport.build("ramanujan-closed-form-as-printed", S,
                                     closed14, tol,
                                     meta="paper-discrepancy: printed "
                                          "Gamma(1/4) variant; Gamma(3/4) "
                                          "matches the summed value")
        return [rep_a, rep_b, rep_c]
