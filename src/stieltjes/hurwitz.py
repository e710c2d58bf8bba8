"""Hurwitz zeta and its s-derivatives by independent representations.

Routes:

* ``zeta_hasse`` -- the globally convergent binomial double series, summed as
  an exact head (n <= N, big-integer binomial weights, guard bits growing
  with n) plus an analytic tail: under the Laplace representation of the
  inner differences the outer weights collapse into elementary generating
  functions, leaving a smooth one-dimensional integral.  Accurate to the
  configured digits for any real s != 1.
* ``hurwitz_zeta_em`` (re-exported from ``kernels``) -- direct summation
  with an Euler-Maclaurin tail, continued analytically to every real
  s != 1; the default route, at a cost that does not grow with x.
* ``zeta_fourier`` and ``zeta_fourier_pair`` -- the trigonometric expansion
  valid for s < 1 on (0,1], its conditionally convergent sums evaluated by
  ``kernels.sum_trig_averaged`` to the requested digits.
* ``zeta_srivastava_choi`` -- the factorial-weighted expansion in
  zeta(s+n, x), verification grade.
* ``poisson_zeta`` -- Poisson summation: an instance of
  ``kernels.sum_oscillatory_ibp``, verification grade.

``zeta`` dispatches between ``em`` (``auto``), ``hasse`` and ``fourier``;
``zeta_prime0`` and ``zeta_doubleprime0`` take ``em`` (the default),
``hasse`` or ``fourier``.  Hasse stays as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import replace

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, PoleError, PrecisionConfig,
                   SeriesResult, as_real)
from .kernels import (hurwitz_zeta_em, sum_alternating_accelerated,
                      sum_oscillatory_ibp, sum_trig_averaged)
from . import gammafuncs
from .combinatorics import bell_complete, binomial

_HEAD_TERMS = 32
_POLE_GUARD = mpf(10) ** -8


def _recip_gamma_derivs(alpha, jmax: int, cfg: PrecisionConfig):
    """d^p/dalpha^p [1/Gamma(-alpha)] for p = 0..jmax.

    1/Gamma(-alpha) = -alpha * exp(u), u = -log Gamma(1-alpha); exponential
    derivatives via complete Bell polynomials in psi^(i)(1-alpha).
    """
    one_minus = 1 - alpha
    u = [(-1) ** (i + 1) * (gammafuncs.digamma(one_minus, cfg) if i == 1
                            else gammafuncs.polygamma(i - 1, one_minus, cfg))
         for i in range(1, jmax + 1)]
    Y = [bell_complete(u[:p]) for p in range(jmax + 1)]
    expu = mp.exp(-gammafuncs.log_gamma(one_minus, cfg))
    B = []
    for p in range(jmax + 1):
        val = -alpha * expu * Y[p]
        if p >= 1:
            val -= p * expu * Y[p - 1]
        B.append(val)
    return B


def _poly_delta(i: int, r: int, x) -> mpf:
    """sum_v (-1)^v C(i,v) (x+v)^r -- alternating difference of y^r."""
    acc = mpf(0)
    for v in range(i + 1):
        c = binomial(i, v)
        acc += (c if v % 2 == 0 else -c) * (x + v) ** r
    return acc


def _weighted_tail(i: int, R: int, t, w, memo) -> mpf:
    """V_{i,R}(w) = sum_{q>R} C(q+i,i) w^q / (q+i+1) at w = 1-e^(-t).

    Direct series for small w; for w >= 1/2 the closed form
    w^-(i+1) [sum_{p=1}^i (-1)^(i-p) z^p/p + (-1)^i t] minus the partial sum,
    with z = e^t - 1 (so log(1+z) = t exactly).
    """
    key = (i, t)
    if key in memo:
        return memo[key]
    if w < mpf("0.5"):
        eps = mpf(2) ** (-mp.prec + 4)
        acc = mpf(0)
        q = R + 1
        comb = mpf(binomial(q + i, i))
        wq = w ** q
        while True:
            term = comb * wq / (q + i + 1)
            acc += term
            if term < eps * (acc + eps):
                break
            q += 1
            comb = comb * (q + i) / q
            wq *= w
        V = acc
    else:
        z = mp.expm1(t)
        closed = mpf(-1) ** i * t
        for p in range(1, i + 1):
            closed += mpf(-1) ** (i - p) * z ** p / p
        closed /= w ** (i + 1)
        partial = mpf(0)
        wq = mpf(1)
        for q in range(R + 1):
            partial += binomial(q + i, i) * wq / (q + i + 1)
            wq *= w
        V = closed - partial
    memo[key] = V
    return V


def _hasse_parts(js, c, x, cfg: PrecisionConfig, head_terms: int = _HEAD_TERMS):
    """A_j = sum_{n>=0} 1/(n+1) * d^j/dc^j Delta_n[y^c](x) for each j in js.

    Delta_n[f](x) := sum_k (-1)^k C(n,k) f(k+x).  Returns ({j: value}, err).
    """
    c = mpf(c)
    x = as_real(x)
    if not x > 0:
        raise DomainError("x must be positive")
    r = max(0, int(mp.ceil(c))) if c > 0 else 0
    alpha = c - r
    N = max(head_terms, r + 8)
    jmax = max(js)
    extra = N + 64
    with cfg.workprec(extra):
        logs = [mp.log(k + x) for k in range(N + 1)]
        powc = [mp.exp(c * L) for L in logs]
        values = {}
        # exact binomial head, one pass per derivative order
        for j in js:
            fvals = [powc[k] * logs[k] ** j for k in range(N + 1)]
            tot = mpf(0)
            for n in range(N + 1):
                s = mpf(0)
                for k in range(n + 1):
                    cb = binomial(n, k)
                    s += (cb if k % 2 == 0 else -cb) * fvals[k]
                tot += s / (n + 1)
            values[j] = tot
        # analytic tail; quadrature only needs the target tolerance, so it
        # runs at a reduced precision (the head carries the guard bits)
        B = _recip_gamma_derivs(alpha, jmax, cfg)
        phis = [_poly_delta(i, r, x) for i in range(r + 1)]
        memo = {}
        tcache = {}
        err_total = mpf(0)
        quad_bits = min(mp.prec, cfg.working_bits + 16)
        for j in js:
            if j == 0 and alpha == 0:
                continue  # series terminates: differences of y^r vanish past r
            tail = mpf(0)
            for i in range(r + 1):
                if phis[i] == 0:
                    continue
                R = N - i

                def integrand(t, i=i, R=R, j=j):
                    if t <= 0:
                        return mpf(0)
                    cached = tcache.get(t)
                    if cached is None:
                        cached = (-mp.expm1(-t), -mp.log(t))
                        tcache[t] = cached
                    w, lt = cached
                    V = _weighted_tail(i, R, t, w, memo)
                    K = mpf(0)
                    for p in range(j + 1):
                        if B[p] == 0:
                            continue
                        K += binomial(j, p) * lt ** (j - p) * B[p]
                    K *= t ** (-alpha - 1)
                    return mp.exp(-(x + i) * t) * V * K

                with mp.workprec(quad_bits):
                    val, qerr = mp.quad(integrand, [0, 1, mp.inf], error=True)
                tail += phis[i] * val
                err_total += abs(phis[i]) * qerr
            values[j] = values[j] + tail
        values = {j: +v for j, v in values.items()}
        return values, +(err_total + mpf(2) ** (-cfg.working_bits + 8))


def zeta_hasse(s, x=1, deriv: int = 0,
               cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """d^j/ds^j zeta(s, x) from the globally convergent binomial series.

    The pole factor 1/(s-1) is differentiated analytically and combined with
    the series derivatives by the Leibniz rule, so s = 0 evaluations are
    exact in the pole part.
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if abs(s - 1) < _POLE_GUARD:
            raise PoleError("zeta(s,x) has a simple pole at s = 1")
        if deriv < 0:
            raise DomainError("derivative order must be >= 0")
        c = 1 - s
        parts, err = _hasse_parts(list(range(deriv + 1)), c, x, cfg)
        total = mpf(0)
        for i in range(deriv + 1):
            total += (binomial(deriv, i) * mp.factorial(i)
                      * parts[deriv - i] / (s - 1) ** (i + 1))
        total *= (-1) ** deriv
        scale = max(mpf(1), abs(total))
        tol = cfg.tol()
        return SeriesResult(+total, +err, _HEAD_TERMS,
                            bool(err <= tol * scale * 100))


def _judged(value, err, terms, converged, cfg) -> SeriesResult:
    """SeriesResult that counts as converged only within the caller's own
    tolerance, 10^-digits relative to max(1, |value|)."""
    return SeriesResult(+value, +err, terms, bool(
        converged and err <= cfg.tol() * max(1, abs(value))))


def _gamma_one_minus(s, cfg: PrecisionConfig):
    """Gamma(1 - s) and a bound on its relative error.

    log Gamma(1 - s) = zeta'(0, 1 - s) + log(2 pi)/2 on the EM engine, run
    to tol / max(1, |log Gamma|) so that the exponential keeps the digits.
    """
    scale = max(1.0, abs(math.lgamma(1 - float(s))))
    lg = hurwitz_zeta_em(0, 1 - s, 1,
                         replace(cfg, tolerance=cfg.tol() / (16 * scale)))
    gam = mp.exp(lg.value + mp.log(2 * mp.pi) / 2)
    return gam, 2 * lg.err_estimate + 8 * mpf(2) ** -mp.prec


def _trig_cfg(cfg: PrecisionConfig, weight) -> PrecisionConfig:
    """cfg for trigonometric sums that enter a result with factor ``weight``."""
    return replace(cfg, tolerance=cfg.tol() / (8 * max(1, abs(weight))))


def zeta_fourier(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the trigonometric expansion, s < 1 and 0 < x <= 1.

    The error estimate covers the two sums, Gamma(1 - s) and the rounding
    of the sin/cos prefactors.
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if s >= 1:
            raise DomainError("trigonometric route requires s < 1")
        if not 0 < x <= 1:
            raise DomainError("x must lie in (0, 1]")
        gam, gam_rel = _gamma_one_minus(s, cfg)
        sin_half = mp.sinpi(s / 2)
        cos_half = mp.cospi(s / 2)
        eps = 8 * mpf(2) ** -mp.prec  # sinpi/cospi and the products
        if x == 1:
            # sums telescope to the plain zeta function; needs s < 0
            if s >= 0:
                raise DomainError("x = 1 requires s < 0 for convergence")
            em = hurwitz_zeta_em(1 - s, 1, 0, cfg)
            factor = 2 * gam * sin_half * (2 * mp.pi) ** (s - 1)
            value = factor * em.value
            err = abs(factor) * em.err_estimate + abs(value) * (gam_rel + eps)
            return _judged(value, err, em.terms_used, em.converged, cfg)
        coeff = lambda n: (2 * mp.pi * n) ** (s - 1)
        tcfg = _trig_cfg(cfg, 2 * gam)
        cos_part = sum_trig_averaged(coeff, "cos", x, tcfg)
        sin_part = sum_trig_averaged(coeff, "sin", x, tcfg)
        value = 2 * gam * (sin_half * cos_part.value + cos_half * sin_part.value)
        parts = abs(cos_part.value) + abs(sin_part.value)
        err = (2 * abs(gam) * (abs(sin_half) * cos_part.err_estimate
                               + abs(cos_half) * sin_part.err_estimate
                               + parts * eps)
               + abs(value) * (gam_rel + eps))
        terms = cos_part.terms_used + sin_part.terms_used
        return _judged(value, err, terms,
                       cos_part.converged and sin_part.converged, cfg)


def zeta_fourier_pair(s, x, kind: str = "sum",
                      cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s,x) +/- zeta(s,1-x) from the single-sum trigonometric forms."""
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if s >= 1:
            raise DomainError("trigonometric route requires s < 1")
        if not 0 < x < 1:
            raise DomainError("x must lie in (0, 1)")
        if kind not in ("sum", "diff"):
            raise ValueError("kind must be 'sum' or 'diff'")
        gam, gam_rel = _gamma_one_minus(s, cfg)
        coeff = lambda n: (2 * mp.pi * n) ** (s - 1)
        tcfg = _trig_cfg(cfg, 4 * gam)
        if kind == "sum":
            part = sum_trig_averaged(coeff, "cos", x, tcfg)
            value = 4 * gam * mp.sinpi(s / 2) * part.value
        else:
            part = sum_trig_averaged(coeff, "sin", x, tcfg)
            value = 4 * gam * mp.cospi(s / 2) * part.value
        eps = 8 * mpf(2) ** -mp.prec
        err = 4 * abs(gam) * part.err_estimate + abs(value) * (gam_rel + eps)
        return _judged(value, err, part.terms_used, part.converged, cfg)


def zeta(s, x=1, deriv: int = 0, method: str = "auto",
         cfg: PrecisionConfig = DEFAULT_CFG):
    """Dispatcher: ``auto`` is the Euler-Maclaurin engine for every s != 1.

    Returns an mpf; use the route-specific functions for SeriesResult
    diagnostics.
    """
    if method in ("auto", "em"):
        return hurwitz_zeta_em(s, x, deriv, cfg).value
    if method == "hasse":
        return zeta_hasse(s, x, deriv, cfg).value
    if method == "fourier":
        if deriv:
            raise DomainError("trigonometric route implements deriv = 0 only")
        return zeta_fourier(s, x, cfg).value
    raise ValueError(f"unknown method {method!r}")


def _trig_combination(parts, x, cfg: PrecisionConfig) -> SeriesResult:
    """sum_i w_i sum_n c_i(n) trig_i(2 pi n x) for (w_i, c_i, trig_i) in
    ``parts``, each sum run to its share of the tolerance."""
    tcfg = _trig_cfg(cfg, sum(abs(w) for w, _, _ in parts))
    value, err, mag, terms, converged = mpf(0), mpf(0), mpf(0), 0, True
    for w, coeff, mode in parts:
        res = sum_trig_averaged(coeff, mode, x, tcfg)
        value += w * res.value
        err += abs(w) * res.err_estimate
        mag += abs(w * res.value)
        terms += res.terms_used
        converged = converged and res.converged
    err += 8 * mpf(2) ** -mp.prec * len(parts) * mag  # weights and products
    return _judged(value, err, terms, converged, cfg)


def zeta_prime0(x, via: str = "em",
                cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta'(0, x); satisfies log Gamma(x) = zeta'(0,x) + log(2 pi)/2."""
    with cfg.workprec(40):
        x = as_real(x)
        if via == "em":
            return hurwitz_zeta_em(0, x, 1, cfg)
        if via == "hasse":
            return zeta_hasse(0, x, 1, cfg)
        if via == "fourier":
            if not 0 < x < 1:
                raise DomainError("trigonometric route requires 0 < x < 1")
            g = mp.euler
            return _trig_combination(
                [(1 / mp.pi, lambda n: (mp.log(2 * mp.pi * n) + g) / n, "sin"),
                 (mpf(1) / 2, lambda n: mpf(1) / n, "cos")], x, cfg)
        raise ValueError(f"unknown route {via!r}")


def zeta_doubleprime0(x, via: str = "em",
                      cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta''(0, x) by the EM engine, the binomial series or the five-sum
    trigonometric form."""
    with cfg.workprec(40):
        x = as_real(x)
        if via == "em":
            return hurwitz_zeta_em(0, x, 2, cfg)
        if via == "hasse":
            return zeta_hasse(0, x, 2, cfg)
        if via == "fourier":
            if not 0 < x < 1:
                raise DomainError("trigonometric route requires 0 < x < 1")
            g = mp.euler
            two_pi = 2 * mp.pi

            def lg(n):
                return mp.log(two_pi * n)

            return _trig_combination(
                [(2, lambda n: lg(n) ** 2 / (two_pi * n), "sin"),
                 (4 * g, lambda n: lg(n) / (two_pi * n), "sin"),
                 (2 * g ** 2 - mp.pi ** 2 / 6, lambda n: 1 / (two_pi * n), "sin"),
                 (2 * mp.pi, lambda n: lg(n) / (two_pi * n), "cos"),
                 (2 * mp.pi * g, lambda n: 1 / (two_pi * n), "cos")], x, cfg)
        raise ValueError(f"unknown route {via!r}")


def zeta_srivastava_choi(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the factorial-weighted expansion in zeta(s+n, x).

    Requires s > 0 (s != 1) so every zeta(s+n, x) lies in the absolutely
    convergent region; x < 1 is shifted up by the elementary recurrence.
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if abs(s - 1) < _POLE_GUARD:
            raise PoleError("s = 1 is the pole")
        if not s > 0:
            raise DomainError("expansion implemented for s > 0")
        if not x > 0:
            raise DomainError("x must be positive")
        shift = mpf(0)
        while x < 1:
            shift += x ** (-s)
            x += 1
        poch = {0: mpf(1)}

        def term(n):
            if n not in poch:
                poch[n] = poch[n - 1] * (s + n - 1) / n
            return (-((-1) ** n) * poch[n] / (n + 1)
                    * hurwitz_zeta_em(s + n, x, 0, cfg).value)

        res = sum_alternating_accelerated(term, cfg, n0=1)
        value = x ** (1 - s) / (s - 1) + res.value + shift
        return SeriesResult(+value, res.err_estimate, res.terms_used, res.converged)


def poisson_zeta(s, x, N: int = 10, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the Poisson-summation representation, s > 1.

    Verification-grade: x^-s/2 + x^(1-s)/(s-1) plus twice the cosine sum
    of kernels.sum_oscillatory_ibp (N integrals and an integration-by-parts
    resummation of the remaining n-tail).
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if not s > 1:
            raise DomainError("Poisson representation requires s > 1")
        if not x > 0:
            raise DomainError("x must be positive")
        base = x ** (-s) / 2 + x ** (1 - s) / (s - 1)
        osc = sum_oscillatory_ibp([1], s, x, "cos", N, 0, cfg)
        value = base + 2 * osc.value
        err = 2 * osc.err_estimate + mpf(10) ** (-cfg.digits)
        return SeriesResult(+value, +err, osc.terms_used,
                            bool(err <= mpf(10) ** -5))
