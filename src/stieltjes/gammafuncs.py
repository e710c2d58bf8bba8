"""Log-gamma, digamma and polygamma on the Euler-Maclaurin engine.

log Gamma(x) = zeta'(0, x) + log(2 pi)/2, psi(x) = -gamma_0(x) and
psi^(k)(x) = (-1)^(k+1) k! zeta(k+1, x) all come from
``kernels._em_log_power_sum``, whose cost does not grow with x.  The
oscillatory-integral form of log Gamma (Bourguet) and the integral form of
psi(x) - log x are kept as independent sides of identity checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real, shift_up)
from .kernels import (_em_log_power_sum, hurwitz_zeta_em, integrate_adaptive,
                      sum_oscillatory_ibp)


def _require_positive(x) -> mpf:
    x = as_real(x)
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    return x


def log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) for x > 0, as zeta'(0, x) + log(2 pi)/2 (Lerch).

    The engine's result, shifted; the constant and the sum round once each.
    """
    with cfg.workprec(40):
        x = _require_positive(x)
        res = hurwitz_zeta_em(0, x, 1, cfg)
        value = +(res.value + mp.log(2 * mp.pi) / 2)
        err = res.err_estimate + 2 * mpf(2) ** -mp.prec * (abs(value) + 1)
        return SeriesResult(value, err, res.terms_used, cfg.tol())


def digamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi(x) = -gamma_0(x) for x > 0: the engine's finite part at s = 1,
    negated and rounded to the working precision."""
    with cfg.workprec(40):
        x = _require_positive(x)
        res = _em_log_power_sum([1], 1, x, cfg)
        value = +(-res.value)
        err = res.err_estimate + mpf(2) ** -mp.prec * abs(value)
        return SeriesResult(value, err, res.terms_used, cfg.tol())


def polygamma(k: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi^(k)(x) = (-1)^(k+1) k! zeta(k+1, x) for k >= 1, x > 0: the
    engine's result scaled by k!, its error with it."""
    if k < 1:
        raise DomainError("polygamma order must be >= 1")
    with cfg.workprec(40):
        x = _require_positive(x)
        res = hurwitz_zeta_em(k + 1, x, 0, cfg)
        value = +((-1) ** (k + 1) * mp.factorial(k) * res.value)
        err = (mp.factorial(k) * res.err_estimate
               + 2 * mpf(2) ** -mp.prec * abs(value))
        return SeriesResult(value, err, res.terms_used, cfg.tol())


@lru_cache(maxsize=8)
def _gregory_signed(count: int, prec: int):
    """(-1)^(n+1) G_n for n = 1..count as mpf at ``prec`` bits, G_n the
    coefficients of z/log(1+z) = sum G_n z^n, found as exact fractions."""
    b = [Fraction((-1) ** k, k + 1) for k in range(count + 1)]
    G = [Fraction(1)]
    for n in range(1, count + 1):
        G.append(-sum(b[k] * G[n - k] for k in range(1, n + 1)))
    with mp.workprec(prec):
        return tuple((-1) ** (n + 1) * mpf(g.numerator) / g.denominator
                     for n, g in enumerate(G) if n)


def _log_kernel_bracket(u) -> mpf:
    """1/(1-u) + 1/log(u) on (0,1); the u->1 cancellation is resummed.

    Near u=1 both terms blow up like 1/(1-u); the difference is the Gregory
    series sum (-1)^(n+1) G_n (1-u)^(n-1), summed by Horner over
    coefficients converted once per precision.
    """
    v = 1 - u
    if v > mpf("0.25"):
        return 1 / v + 1 / mp.log(u)
    acc = mpf(0)
    for c in reversed(_gregory_signed(int(mp.dps * 1.7) + 8, mp.prec)):
        acc = acc * v + c
    return acc


def digamma_log_integral(x, cfg: PrecisionConfig = DEFAULT_CFG
                         ) -> SeriesResult:
    """psi(x) - log x = -int_0^1 u^(x-1)[1/(1-u) + 1/log u] du: the
    quadrature's result.

    The integrand is strictly negative on (0,1), consistent with
    psi(x) < log x for all x > 0.  The quadrature runs in v = u^x, where
    u^(x-1) du = dv/x leaves an integrand bounded at both ends.
    """
    with cfg.workprec(40):
        x = _require_positive(x)

        def f(v):
            if v <= 0 or v >= 1:
                return mpf(0)
            return -_log_kernel_bracket(v ** (1 / x)) / x

        return integrate_adaptive(f, 0, 1, cfg)


def bourguet_log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) from the oscillatory-integral representation.

    Low-accuracy cross-check of log_gamma (its integrals stop near 1e-12, so
    higher requests end unconverged): Stirling-like elementary part plus
    (1/pi) sum_n (1/n) int_0^inf sin(2 pi n t)/(x+t) dt, from
    kernels.sum_oscillatory_ibp, which picks its own number of integrals
    before the integration-by-parts tail; x < 1 is shifted up by
    log Gamma(x) = log Gamma(x+1) - log x.
    """
    with cfg.workprec(40):
        x = _require_positive(x)
        x, shift, _ = shift_up(x, lambda v: -mp.log(v))
        elementary = (mp.log(2 * mp.pi) / 2 + (x - mpf(1) / 2) * mp.log(x)
                      - x + shift)
        osc = sum_oscillatory_ibp([1], 1, x, "sin", 1, cfg)
        value = elementary + osc.value / mp.pi
        err = (osc.err_estimate / mp.pi + 4 * mpf(2) ** -mp.prec
               * (abs(elementary) + abs(shift) + abs(value)))
        return SeriesResult(+value, +err, osc.terms_used, cfg.tol())
