"""Log-gamma, digamma and polygamma on the Euler-Maclaurin engine.

log Gamma(x) = zeta'(0, x) + log(2 pi)/2, psi(x) = -gamma_0(x) and
psi^(k)(x) = (-1)^(k+1) k! zeta(k+1, x) all come from
``kernels._em_log_power_sum``, whose cost does not grow with x, on the
integer fixed point of :mod:`stieltjes.fixed`.  The oscillatory-integral
form of log Gamma (Bourguet, its sum over n rotated
onto the imaginary axis by ``gauss.sum_oscillatory``) and the integral
form of psi(x) - log x are kept as independent sides of identity checks.
"""

from __future__ import annotations

import math

from mpmath import iv, mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   combine, require_positive, shift_up)
from .kernels import _em_log_power_sum, hurwitz_zeta_em, integrate_adaptive


def log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) for x > 0, as zeta'(0, x) + log(2 pi)/2 (Lerch)."""
    with cfg.workprec(40):
        x = require_positive(x)
        return combine(lambda z: z + iv.log(2 * iv.pi) / 2,
                       hurwitz_zeta_em(0, x, 1, cfg), tol=cfg.tol())


def digamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi(x) = -gamma_0(x) for x > 0: the engine's finite part at s = 1,
    negated."""
    with cfg.workprec(40):
        x = require_positive(x)
        return combine(lambda g: -g, _em_log_power_sum([1], 1, x, cfg),
                       tol=cfg.tol())


def polygamma(k: int, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """psi^(k)(x) = (-1)^(k+1) k! zeta(k+1, x) for k >= 1, x > 0."""
    if k < 1:
        raise DomainError("polygamma order must be >= 1")
    with cfg.workprec(40):
        x = require_positive(x)
        return combine(lambda z: (-1) ** (k + 1) * math.factorial(k) * z,
                       hurwitz_zeta_em(k + 1, x, 0, cfg), tol=cfg.tol())


def _log_kernel_bracket(u) -> mpf:
    """1/(1-u) + 1/log(u) on (0,1), rounded to the working precision.

    Near u = 1 both terms are about 1/(1-u) and cancel to 1/2 + O(1-u), so
    the sum is formed with log2(1/(1-u)) + 8 extra bits; 1 - u is exact
    there (u >= 1/2), and the limit 1/2 stands at u = 1.
    """
    v = 1 - u
    if not v:
        return mpf(1) / 2
    with mp.workprec(mp.prec - mp.mag(v) + 8):
        k = 1 / v + 1 / mp.log(u)
    return +k


def digamma_log_integral(x, cfg: PrecisionConfig = DEFAULT_CFG
                         ) -> SeriesResult:
    """psi(x) - log x = -int_0^1 u^(x-1)[1/(1-u) + 1/log u] du: the
    quadrature's result.

    The integrand is strictly negative on (0,1), consistent with
    psi(x) < log x for all x > 0.  The quadrature runs in v = u^x, where
    u^(x-1) du = dv/x leaves an integrand bounded at both ends.
    """
    with cfg.workprec(40):
        x = require_positive(x)

        def f(v):
            if v <= 0 or v >= 1:
                return mpf(0)
            return -_log_kernel_bracket(v ** (1 / x)) / x

        return integrate_adaptive(f, 0, 1, cfg)


def bourguet_log_gamma(x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """log Gamma(x) from the oscillatory-integral representation.

    Cross-check of log_gamma: Stirling-like elementary part plus
    (1/pi) sum_n (1/n) int_0^inf sin(2 pi n t)/(x+t) dt, the sine sum of
    gauss.sum_oscillatory; x < 1 is shifted up by
    log Gamma(x) = log Gamma(x+1) - log x.
    """
    from .gauss import sum_oscillatory
    with cfg.workprec(40):
        x = require_positive(x)
        x, shift, _ = shift_up(x, lambda v: -iv.log(v))
        X = iv.mpf(x)
        elementary = (iv.log(2 * iv.pi) / 2 + (X - 0.5) * iv.log(X) - X
                      + shift)
        return combine(lambda osc: elementary + osc / iv.pi,
                       sum_oscillatory([1], 1, x, "sin", cfg), tol=cfg.tol())
