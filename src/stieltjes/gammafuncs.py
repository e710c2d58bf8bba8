"""Log-gamma, digamma and polygamma via shifted series with zeta tails.

The production representations are the Weierstrass-product series for
log Gamma and its derivative for psi, after shifting the argument above a
threshold with the recurrences log Gamma(x+1) = log Gamma(x) + log x and
psi(x+1) = psi(x) + 1/x.  Series tails are resummed exactly through Hurwitz
zeta values at integer s >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, IdentityReport, PrecisionConfig,
                   SeriesResult, as_real)
from .kernels import hurwitz_zeta_em, integrate_adaptive, sum_oscillatory_ibp

_SHIFT_THRESHOLD = 16


def _require_positive(x) -> mpf:
    x = as_real(x)
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    return x


def log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """log Gamma(x) for x > 0."""
    with cfg.workprec(40):
        x = _require_positive(x)
        shift = mpf(0)
        threshold = _SHIFT_THRESHOLD + cfg.digits // 2
        while x < threshold:
            shift -= mp.log(x)
            x += 1
        y = x - 1
        # log Gamma(1+y) = -gamma*y + sum_n [y/n - log(1+y/n)], tail by
        # Euler-Maclaurin on f(t) = y/t + log t - log(t+y)
        N = int(y) + 8
        acc = -mp.euler * y + shift
        for n in range(1, N + 1):
            acc += y / n - mp.log1p(y / n)
        a = mpf(N + 1)
        acc += -y * mp.log(a) - a * mp.log(a) + (a + y) * mp.log(a + y) - y
        f_a = y / a + mp.log(a) - mp.log(a + y)
        acc += f_a / 2
        tol = cfg.tol() * mpf(10) ** (-4)
        r = 1
        prev = mpf("inf")
        while r < 8 * cfg.digits:
            # f^(r)(a) for odd r
            fr = ((-1) ** r * mp.factorial(r) * y * a ** (-r - 1)
                  + (-1) ** (r - 1) * mp.factorial(r - 1)
                  * (a ** (-r) - (a + y) ** (-r)))
            corr = -mp.bernoulli(r + 1) / mp.factorial(r + 1) * fr
            acc += corr
            mag = abs(corr)
            if mag > prev or mag < tol * (1 + abs(acc)):
                break
            prev = mag
            r += 2
        return +acc


def digamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """psi(x) for x > 0; satisfies psi(1) = -gamma."""
    with cfg.workprec(40):
        x = _require_positive(x)
        shift = mpf(0)
        threshold = _SHIFT_THRESHOLD + cfg.digits // 2
        while x < threshold:
            shift -= 1 / x
            x += 1
        y = x - 1
        # psi(1+y) = -gamma + sum_n [1/n - 1/(n+y)], tail by Euler-Maclaurin
        # on f(t) = 1/t - 1/(t+y)
        N = int(y) + 8
        acc = -mp.euler + shift
        for n in range(1, N + 1):
            acc += y / (n * (n + y))
        a = mpf(N + 1)
        acc += mp.log1p(y / a)
        f_a = y / (a * (a + y))
        acc += f_a / 2
        tol = cfg.tol() * mpf(10) ** (-4)
        r = 1
        prev = mpf("inf")
        while r < 8 * cfg.digits:
            fr = ((-1) ** r * mp.factorial(r)
                  * (a ** (-r - 1) - (a + y) ** (-r - 1)))
            corr = -mp.bernoulli(r + 1) / mp.factorial(r + 1) * fr
            acc += corr
            mag = abs(corr)
            if mag > prev or mag < tol * (1 + abs(acc)):
                break
            prev = mag
            r += 2
        return +acc


def polygamma(k: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """psi^(k)(x) = (-1)^(k+1) k! zeta(k+1, x) for k >= 1, x > 0."""
    if k < 1:
        raise DomainError("polygamma order must be >= 1")
    with cfg.workprec(40):
        x = _require_positive(x)
        return +((-1) ** (k + 1) * mp.factorial(k)
                 * hurwitz_zeta_em(k + 1, x, 0, cfg))


@lru_cache(maxsize=8)
def _gregory_coefficients(count: int):
    """Coefficients G_n of z/log(1+z) = sum G_n z^n, as exact fractions."""
    b = [Fraction((-1) ** k, k + 1) for k in range(count + 1)]
    G = [Fraction(1)]
    for n in range(1, count + 1):
        G.append(-sum(b[k] * G[n - k] for k in range(1, n + 1)))
    return tuple(G)


def _log_kernel_bracket(u) -> mpf:
    """1/(1-u) + 1/log(u) on (0,1); the u->1 cancellation is resummed.

    Near u=1 both terms blow up like 1/(1-u); the difference is the Gregory
    series sum (-1)^(n+1) G_n (1-u)^(n-1).
    """
    v = 1 - u
    if v > mpf("0.25"):
        return 1 / v + 1 / mp.log(u)
    need = int(mp.dps * 1.7) + 8
    G = _gregory_coefficients(need)
    acc = mpf(0)
    vp = mpf(1)
    for n in range(1, need + 1):
        acc += (-1) ** (n + 1) * mpf(G[n].numerator) / G[n].denominator * vp
        vp *= v
    return acc


def digamma_integral_check(x, cfg: PrecisionConfig = DEFAULT_CFG,
                           tolerance=None) -> IdentityReport:
    """Check psi(x) - log x == -int_0^1 u^(x-1)[1/(1-u) + 1/log u] du.

    The integrand is strictly negative on (0,1), consistent with
    psi(x) < log x for all x > 0.
    """
    with cfg.workprec(40):
        x = _require_positive(x)
        tol = mpf(tolerance) if tolerance is not None else mpf(10) ** -10

        def f(u):
            if u <= 0 or u >= 1:
                return mpf(0)
            return -(u ** (x - 1)) * _log_kernel_bracket(u)

        quadrature = integrate_adaptive(f, 0, 1, cfg)
        lhs = quadrature.value
        rhs = digamma(x, cfg) - mp.log(x)
        return IdentityReport.build("digamma-log-integral", lhs, rhs, tol, x=x,
                                    meta="integrand negative on (0,1)")


def bourguet_log_gamma(x, N: int = 12,
                       cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) from the oscillatory-integral representation.

    Low-accuracy cross-check of log_gamma (target ~1e-4): Stirling-like
    elementary part plus (1/pi) sum_n (1/n) int_0^inf sin(2 pi n t)/(x+t) dt,
    N integrals plus an integration-by-parts resummation of the n-tail.
    """
    with cfg.workprec(40):
        x = _require_positive(x)
        elementary = mp.log(2 * mp.pi) / 2 + (x - mpf(1) / 2) * mp.log(x) - x
        osc = sum_oscillatory_ibp([1], 1, x, "sin", N, 1, cfg)
        value = elementary + osc.value / mp.pi
        err = osc.err_estimate / mp.pi + mpf(10) ** (-cfg.digits)
        return SeriesResult(+value, +err, osc.terms_used,
                            bool(err <= mpf(10) ** -4))
