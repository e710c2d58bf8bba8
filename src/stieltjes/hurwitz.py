"""Hurwitz zeta and its s-derivatives by independent representations.

Routes:

* ``zeta_hasse`` -- the globally convergent binomial double series, summed as
  an exact head (n <= N, big-integer binomial weights, guard bits growing
  with n) plus an analytic tail: under the Laplace representation of the
  inner differences the outer weights collapse into elementary generating
  functions, leaving a smooth one-dimensional integral.  Accurate to the
  configured digits for any real s != 1.  The integrand's x- and
  s-independent factors at the quadrature nodes are kept in process-wide
  tables (:func:`_node_table`, :func:`_tail_table`), at most
  ``_TAIL_TABLES`` of each, so later calls only look them up.
* ``hurwitz_zeta_em`` (re-exported from ``kernels``) -- direct summation
  with an Euler-Maclaurin tail, continued analytically to every real
  s != 1; the default route, at a cost that does not grow with x.  Hasse
  and Srivastava-Choi round s as it does, so each of the three takes s
  next to 1 with s - 1 to working precision and refuses only s = 1.
* ``zeta_fourier`` -- the trigonometric expansion valid for s < 1 on
  (0,1], its conditionally convergent sums evaluated by
  ``kernels.sum_trig_averaged`` to the requested digits.
* ``zeta_srivastava_choi`` -- the factorial-weighted expansion in
  zeta(s+n, x), summed directly past a shift of x with a proven remainder
  bound.
* ``poisson_zeta`` -- Poisson summation, its cosine sum over n rotated
  onto the imaginary axis and summed as one integral by
  ``kernels.sum_oscillatory``.

``zeta`` dispatches between all five and returns the route's own result;
``zeta_prime0`` and ``zeta_doubleprime0`` take ``em`` (the default),
``hasse`` or ``fourier``.  Hasse stays as the independent cross-check.
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, PoleError, PrecisionConfig,
                   SeriesResult, as_real, shift_up)
from .kernels import (TS_GUARD_BITS, _pole_bits, hurwitz_zeta_em,
                      integrate_adaptive, sum_majorized, sum_oscillatory,
                      sum_trig_averaged)
from . import gammafuncs
from .combinatorics import bell_complete, binomial

_HEAD_TERMS = 32
# how many node tables, tail tables and coefficient tables the process keeps
# (least recently used go first); a node table holds up to ~1,500 nodes,
# 0.5-1 MB at 20-30 digits
_TAIL_TABLES = 16
# where the Srivastava-Choi route shifts x before its series: a shift step
# costs a power, a term an EM call and gains log2(x) bits
SHIFT_FLOOR = 64


def _recip_gamma_derivs(alpha, jmax: int, cfg: PrecisionConfig):
    """d^p/dalpha^p [1/Gamma(-alpha)] for p = 0..jmax, and error bounds.

    1/Gamma(-alpha) = -alpha * exp(u), u = -log Gamma(1-alpha); exponential
    derivatives via complete Bell polynomials in psi^(i)(1-alpha).  The
    error du_i of each input, log Gamma or psi^(i-1) on the EM engine, is
    that input's own claim, and passes through dY_p/du_i = C(p, i) Y_(p-i);
    the higher orders are bounded by the same expansion at |u|, where every
    coefficient is positive.  Returns (B, bounds on |B_p - exact|).
    """
    one_minus = 1 - alpha
    used = [gammafuncs.log_gamma(one_minus, cfg)] + [
        gammafuncs.digamma(one_minus, cfg) if i == 1
        else gammafuncs.polygamma(i - 1, one_minus, cfg)
        for i in range(1, jmax + 1)]
    errs = [r.err_estimate for r in used]
    u = [(-1) ** i * r.value for i, r in enumerate(used[1:])]
    du = errs[1:]
    Y = [bell_complete(u[:p]) for p in range(jmax + 1)]
    Y_abs = [bell_complete([abs(v) for v in u[:p]]) for p in range(jmax + 1)]
    dY = []
    for p in range(jmax + 1):
        # first order at u; higher orders: Y_p(|u| + du) less its constant
        # and linear terms
        d_lin = [binomial(p, i) * du[i - 1] for i in range(1, p + 1)]
        first = sum(d * abs(Y[p - i]) for i, d in enumerate(d_lin, 1))
        higher = (bell_complete([abs(v) + d for v, d in zip(u[:p], du)])
                  - Y_abs[p]
                  - sum(d * Y_abs[p - i] for i, d in enumerate(d_lin, 1)))
        dY.append(first + higher)
    expu = mp.exp(-used[0].value)
    eps = mpf(2) ** -mp.prec
    d_exp = expu * (mp.expm1(errs[0]) + 4 * eps)
    exp_hi = expu + d_exp
    def term_err(q):  # error of expu * Y_q, and its rounding
        return (d_exp * (abs(Y[q]) + dY[q]) + exp_hi * dY[q]
                + (q + 8) * eps * exp_hi * Y_abs[q])

    B, bounds = [], []
    for p in range(jmax + 1):
        val = -alpha * expu * Y[p]
        bound = abs(alpha) * term_err(p)
        if p >= 1:
            val -= p * expu * Y[p - 1]
            bound += p * term_err(p - 1)
        B.append(val)
        bounds.append(bound)
    return B, bounds


def _poly_delta(i: int, r: int, x) -> mpf:
    """sum_v (-1)^v C(i,v) (x+v)^r -- alternating difference of y^r."""
    acc = mpf(0)
    for v in range(i + 1):
        c = binomial(i, v)
        acc += (c if v % 2 == 0 else -c) * (x + v) ** r
    return acc


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _node_table(bits: int) -> dict:
    """t -> (1 - e^(-t), -log t) at the tail quadrature's nodes, for
    ``integrate_adaptive`` with nodes at ``bits``; filled by the calls that
    use it."""
    return {}


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _tail_table(N: int, i: int, bits: int) -> dict:
    """t -> V_{i,N-i}(t) (:func:`_weighted_tail`) at the tail quadrature's
    nodes, for ``integrate_adaptive`` with nodes at ``bits``; filled by the
    calls that use it.

    V depends on neither x nor s, so every Hasse call with the same head
    length and node precision shares the table.
    """
    return {}


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _tail_coefficients(i: int, count: int, bits: int) -> tuple:
    """C(q+i, i)/(q+i+1) for q < count, as mpf at ``bits``."""
    with mp.workprec(bits):
        return tuple(mpf(binomial(q + i, i)) / (q + i + 1)
                     for q in range(count))


def _weighted_tail(i: int, R: int, t, w) -> mpf:
    """V_{i,R}(w) = sum_{q>R} c_q w^q at w = 1-e^(-t), c_q = C(q+i,i)/(q+i+1).

    For w < 1/16 the direct series, by Horner, to the first K terms: past
    q = R the terms fall by at least g w per term, g = (R+i+2)/(R+2), so K
    with (g w)^K <= 2^-(prec+8) leaves out less than an ulp.  Otherwise
    the closed form w^-(i+1) [sum_{p=1}^i (-1)^(i-p) z^p/p + (-1)^i t]
    minus the partial sum over q <= R, z = e^t - 1 (so log(1+z) = t
    exactly); the two cancel to V ~ w^(R+1), so the closed form runs at
    (R+1) log2(1/w) + 16 extra bits and rounds once at the end.  Both
    read the coefficients of :func:`_tail_coefficients`.  V depends on
    neither x nor s, so :func:`_hasse_parts` computes it once per node,
    precision and (N, i), into :func:`_tail_table`.
    """
    prec = mp.prec
    g = math.log2((R + i + 2) / (R + 2))
    # enough coefficients for the direct series up to w = 1/16 and for the
    # partial sum at the highest raised precision, 4(R+1) + 16 extra bits
    count = R + 2 + math.ceil((prec + 8) / (4 - g))
    coeffs = _tail_coefficients(i, count, prec + 4 * (R + 1) + 16)
    if w < mpf(1) / 16:
        K = math.ceil((prec + 8) / (-mp.mag(w) - g))
        acc = mpf(0)
        for c in reversed(coeffs[R + 1:R + 1 + K]):
            acc = acc * w + c
        return acc * w ** (R + 1)
    with mp.workprec(prec + (R + 1) * (1 - mp.mag(w)) + 16):
        w = -mp.expm1(-t)
        z = mp.expm1(t)
        closed = mpf(-1) ** i * t
        for p in range(1, i + 1):
            closed += mpf(-1) ** (i - p) * z ** p / p
        closed /= w ** (i + 1)
        partial = mpf(0)
        for c in reversed(coeffs[:R + 1]):
            partial = partial * w + c
        V = closed - partial
    return +V


def _hasse_parts(js, c, x, cfg: PrecisionConfig):
    """A_j = sum_{n>=0} 1/(n+1) * d^j/dc^j Delta_n[y^c](x) for each j in js.

    Delta_n[f](x) := sum_k (-1)^k C(n,k) f(k+x).  Returns ({j: value}, err,
    head length).  err adds, over every j, the quadrature's estimate, a
    bound on the rounding of the head (Sum_k C(n,k) |f(k+x)| <= 2^n max |f|)
    and an integral of the tail integrand's bound: the error of the
    1/Gamma derivatives (:func:`_recip_gamma_derivs`) plus the integrand's
    rounding, V's Horner steps included.

    Both integrals run on ``kernels.integrate_adaptive`` over [0, 1] and
    [1, inf), the second cut at the integrand's peak when that lies past 2
    (large s), and stop at the request; the bound's at a looser
    tolerance on the same digits, so on the first levels of the same
    nodes.  They read w, -log t and V_{i,N-i}(t) from the shared tables for
    (N, i) and the node precision, filling in the nodes no earlier call
    visited; a node is only ever served at the precision it was computed
    at, so a warm call returns the same bits as a cold one.
    """
    c = mpf(c)
    x = as_real(x)
    if not x > 0:
        raise DomainError("x must be positive")
    r = max(0, int(mp.ceil(c))) if c > 0 else 0
    alpha = c - r
    N = max(_HEAD_TERMS, r + 8)
    jmax = max(js)
    extra = N + 64
    with cfg.workprec(extra):
        eps = mpf(2) ** -mp.prec
        logs = [mp.log(k + x) for k in range(N + 1)]
        powc = [mp.exp(c * L) for L in logs]
        values = {}
        err_total = mpf(0)
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
            # |f| and its rounding: log(k+x) to 2 ulps absolute, so f to
            # (2j + 4 + 2|c L|) ulps of max(1, |L|)^j e^(cL)
            f_max = max(max(1, abs(L)) ** j * p for L, p in zip(logs, powc))
            cond = N + 2 * j + 8 + 2 * abs(c) * max(abs(L) for L in logs)
            err_total += eps * cond * f_max * mpf(2) ** (N + 1)
        # analytic tail; quadrature only needs the target tolerance, so it
        # runs at the request's precision (the head carries the guard bits)
        B, B_err = _recip_gamma_derivs(alpha, jmax, cfg)
        phis = [_poly_delta(i, r, x) for i in range(r + 1)]
        node_bits = cfg.working_bits + TS_GUARD_BITS
        nodes = _node_table(node_bits)
        eps_q = mpf(2) ** -node_bits
        # V to 2 ulps per Horner step, and the K sum of the integrand
        amplify = node_bits + 4 * N + 16 * (jmax + 2)
        loose = cfg.replace(tolerance=cfg.tol() * 4)

        def tail_integrand(i, j, weight):
            """t -> e^(-(x+i)t) V(t) t^(-alpha-1) sum_p C(j,p) weight(p, t, L),
            L = -log t."""
            table = _tail_table(N, i, node_bits)

            def f(t):
                if t <= 0:
                    return mpf(0)
                node = nodes.get(t)
                if node is None:
                    node = nodes[t] = (-mp.expm1(-t), -mp.log(t))
                w, lt = node
                V = table.get(t)
                if V is None:
                    V = table[t] = _weighted_tail(i, N - i, t, w)
                K = mpf(0)
                for p in range(j + 1):
                    K += binomial(j, p) * weight(p, t, lt)
                K *= t ** (-alpha - 1)
                return mp.exp(-(x + i) * t) * V * K
            return f

        def ranges(i):
            """(0, 1) and (1, inf), the second cut at the peak t* of
            t^(-alpha-1) e^(-(x+i)t) when t* > 2 (large s), so that the
            quadrature's nodes cannot step over it."""
            peak = (-alpha - 1) / (x + i)
            if peak > 2:
                return (0, 1), (1, peak), (peak, mp.inf)
            return (0, 1), (1, mp.inf)

        for j in js:
            if j == 0 and alpha == 0:
                continue  # series terminates: differences of y^r vanish past r
            tail = mpf(0)
            for i in range(r + 1):
                if phis[i] == 0:
                    continue

                def bound(p, t, lt, i=i, j=j):
                    rho = eps_q * (amplify
                                   + (x + i + abs(alpha) + 2) * (t + abs(lt)))
                    return abs(lt) ** (j - p) * (B_err[p] + rho * abs(B[p]))

                integrand = tail_integrand(
                    i, j, lambda p, t, lt, j=j: lt ** (j - p) * B[p])
                for a, b in ranges(i):
                    val = integrate_adaptive(integrand, a, b, cfg)
                    J = integrate_adaptive(tail_integrand(i, j, bound), a, b,
                                           loose)
                    tail += phis[i] * val.value
                    err_total += abs(phis[i]) * (val.err_estimate
                                                 + 2 * J.value
                                                 + J.err_estimate)
            values[j] = values[j] + tail
        values = {j: +v for j, v in values.items()}
        err_total += 4 * eps * sum(abs(v) for v in values.values())
        return values, +err_total, N + 1


def zeta_hasse(s, x=1, deriv: int = 0,
               cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """d^j/ds^j zeta(s, x) from the globally convergent binomial series.

    The pole factor 1/(s-1) is differentiated analytically and combined with
    the series derivatives by the Leibniz rule, so s = 0 evaluations are
    exact in the pole part.  s is rounded as :func:`kernels.hurwitz_zeta_em`
    rounds it, so s - 1 keeps its working precision next to the pole; only
    s = 1 itself is refused.
    """
    with cfg.workprec(40 + _pole_bits(s)):
        s = as_real(s)
    with cfg.workprec(40):
        x = as_real(x)
        if s == 1:
            raise PoleError("zeta(s,x) has a simple pole at s = 1")
        if deriv < 0:
            raise DomainError("derivative order must be >= 0")
        # the tail's peak t* ~ s must be a number its quadrature can reach
        if not math.isfinite(float(s)):
            raise DomainError(f"s must lie within float range, got {s}")
        c = 1 - s
        parts, err, terms = _hasse_parts(list(range(deriv + 1)), c, x, cfg)
        total = mpf(0)
        gain = mpf(0)  # how the parts' error enters the total
        mag = mpf(0)
        for i in range(deriv + 1):
            weight = binomial(deriv, i) * mp.factorial(i) / (s - 1) ** (i + 1)
            total += weight * parts[deriv - i]
            gain += abs(weight)
            mag += abs(weight * parts[deriv - i])
        total *= (-1) ** deriv
        err = err * gain + (deriv + 4) * mpf(2) ** -mp.prec * mag
        return SeriesResult(+total, +err, terms, cfg.tol())


def _gamma_one_minus(s, cfg: PrecisionConfig):
    """Gamma(1 - s) and a bound on its relative error.

    log Gamma(1 - s) = zeta'(0, 1 - s) + log(2 pi)/2 on the EM engine, run
    to tol / max(1, |log Gamma|) so that the exponential keeps the digits.
    """
    scale = max(1.0, abs(math.lgamma(1 - float(s))))
    lg = hurwitz_zeta_em(0, 1 - s, 1,
                         cfg.replace(tolerance=cfg.tol() / (16 * scale)))
    gam = mp.exp(lg.value + mp.log(2 * mp.pi) / 2)
    return gam, 2 * lg.err_estimate + 8 * mpf(2) ** -mp.prec


def _trig_cfg(cfg: PrecisionConfig, weight) -> PrecisionConfig:
    """cfg for trigonometric sums that enter a result with factor ``weight``."""
    return cfg.replace(tolerance=cfg.tol() / (8 * max(1, abs(weight))))


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
            return SeriesResult(+value, +err, em.terms_used, cfg.tol())
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
        return SeriesResult(+value, +err, terms, cfg.tol())


# routes of zeta that implement deriv = 0 only; each looks its function up
# at call time, so that a rebound module attribute is the one that runs
_VALUE_ROUTES = {
    "fourier": lambda s, x, cfg: zeta_fourier(s, x, cfg),
    "srivastava-choi": lambda s, x, cfg: zeta_srivastava_choi(s, x, cfg),
    "poisson": lambda s, x, cfg: poisson_zeta(s, x, cfg),
}


def zeta(s, x=1, deriv: int = 0, method: str = "auto",
         cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """The route's result for d^j/ds^j zeta(s, x).

    ``em`` (alias ``auto``) is the Euler-Maclaurin engine for every s != 1,
    ``hasse`` the binomial series; ``fourier``, ``srivastava-choi`` and
    ``poisson`` take deriv = 0 only.
    """
    if method in ("auto", "em"):
        return hurwitz_zeta_em(s, x, deriv, cfg)
    if method == "hasse":
        return zeta_hasse(s, x, deriv, cfg)
    if method not in _VALUE_ROUTES:
        raise DomainError(f"unknown zeta method {method!r}")
    if deriv:
        raise DomainError(f"zeta method {method!r} implements deriv = 0 only")
    return _VALUE_ROUTES[method](s, x, cfg)


def _trig_combination(parts, x, cfg: PrecisionConfig) -> SeriesResult:
    """sum_i w_i sum_n c_i(n) trig_i(2 pi n x) for (w_i, c_i, trig_i) in
    ``parts``, each sum run to its share of the tolerance."""
    tcfg = _trig_cfg(cfg, sum(abs(w) for w, _, _ in parts))
    value, err, mag, terms = mpf(0), mpf(0), mpf(0), 0
    for w, coeff, mode in parts:
        res = sum_trig_averaged(coeff, mode, x, tcfg)
        value += w * res.value
        err += abs(w) * res.err_estimate
        mag += abs(w * res.value)
        terms += res.terms_used
    err += 8 * mpf(2) ** -mp.prec * len(parts) * mag  # weights and products
    return SeriesResult(+value, +err, terms, cfg.tol())


def zeta_prime0(x, via: str = "em",
                cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta'(0, x); satisfies log Gamma(x) = zeta'(0,x) + log(2 pi)/2."""
    if via in ("em", "hasse"):
        return zeta(0, x, 1, via, cfg)
    with cfg.workprec(40):
        x = as_real(x)
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
    """zeta''(0, x) by the EM engine, the binomial series or the
    trigonometric form: with L = log 2 pi n + gamma, the sine sum of
    (2 L^2 - pi^2/6)/(2 pi n) plus the cosine sum of L/n."""
    if via in ("em", "hasse"):
        return zeta(0, x, 2, via, cfg)
    with cfg.workprec(40):
        x = as_real(x)
        if via == "fourier":
            if not 0 < x < 1:
                raise DomainError("trigonometric route requires 0 < x < 1")
            g = mp.euler
            two_pi = 2 * mp.pi
            z2 = mp.pi ** 2 / 6

            def lg(n):
                return mp.log(two_pi * n) + g

            return _trig_combination(
                [(1, lambda n: (2 * lg(n) ** 2 - z2) / (two_pi * n), "sin"),
                 (1, lambda n: lg(n) / n, "cos")], x, cfg)
        raise ValueError(f"unknown route {via!r}")


def zeta_srivastava_choi(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) = x^(1-s)/(s-1) - sum_{n>=1} (-1)^n (s)_n/(n! (n+1))
    zeta(s+n, x), for s > 0 (s != 1), where every zeta(s+n, x) converges.

    x is shifted up to ``SHIFT_FLOOR`` by zeta(s, x) = x^-s + zeta(s, x+1),
    then the series is summed by ``kernels.sum_majorized``.  The
    remainder: each summand of zeta(s+n+1, x) is at most 1/x times that of
    zeta(s+n, x), so past term n the terms fall by max(1, (s+n+1)/(n+3))/x
    per term.  ``terms_used`` counts shift steps plus series terms.  s is
    rounded as :func:`kernels.hurwitz_zeta_em` rounds it, so s - 1 keeps
    its working precision next to the pole.
    """
    with cfg.workprec(40 + _pole_bits(s)):
        s = as_real(s)
    with cfg.workprec(40):
        x = as_real(x)
        if s == 1:
            raise PoleError("zeta(s,x) has a simple pole at s = 1")
        if not s > 0:
            raise DomainError("expansion implemented for s > 0")
        if not x > 0:
            raise DomainError("x must be positive")
        x0 = x
        x, shift, steps = shift_up(x, lambda v: v ** (-s), SHIFT_FLOOR)
        eps = mpf(2) ** -mp.prec
        # v^-s = e^(-s log v), log v to 2 ulps absolute plus one relative
        shift_err = eps * shift * (steps + 2 + s * (2 + abs(mp.log(x0))
                                                    + mp.log(x)))
        poch = [mpf(1)]  # (s)_n / n!

        def term(n):
            gap = mp.fadd(s, n - 1, exact=True)  # s + n - 1
            poch.append(poch[-1] * gap / n)
            weight = poch[n] / (n + 1)
            # the EM engine rounds s + n by delta, which moves zeta(s+n, x)
            # by at most delta zeta (log x (1 + gap/x) + 1/gap); for small s
            # the first term, near the pole, gets the bits to keep it small
            sigma = mp.fadd(s, n, exact=True)
            em_cfg = cfg
            if n == 1 and s < 1:
                em_cfg = cfg.replace(digits=cfg.digits + int(
                    mp.ceil(-mp.log10(s))))
            z = hurwitz_zeta_em(sigma, x, 0, em_cfg)
            delta = sigma * mpf(2) ** -em_cfg.working_bits
            moved = delta * (mp.log(x) * (1 + gap / x) + 1 / gap)
            claim = weight * (z.err_estimate
                              + ((n + 4) * eps + moved) * z.value)
            rho = max(1, (s + n + 1) / (n + 3)) / x
            tail = mpf("inf")
            if rho < 1:
                first = (poch[n] * (s + n) / (n + 1) / (n + 2)
                         * (z.value + z.err_estimate) / x)
                tail = first / (1 - rho)
            return -(-1) ** n * weight * z.value, claim, tail

        head = x ** (1 - s) / (s - 1) + shift
        series = sum_majorized(term, head, cfg)
        value = head + series.value
        rounding = shift_err + 4 * eps * (abs(head) + abs(value))
        return SeriesResult(+value, series.err_estimate + rounding,
                            steps + series.terms_used, cfg.tol())


def poisson_zeta(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the Poisson-summation representation, s > 1.

    x^-s/2 + x^(1-s)/(s-1) plus twice the cosine sum of
    kernels.sum_oscillatory; x < 1 is shifted up by
    zeta(s, x) = x^-s + zeta(s, x+1).
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if not s > 1:
            raise DomainError("Poisson representation requires s > 1")
        if not x > 0:
            raise DomainError("x must be positive")
        x, shift, _ = shift_up(x, lambda v: v ** (-s))
        base = x ** (-s) / 2 + x ** (1 - s) / (s - 1) + shift
        osc = sum_oscillatory([1], s, x, "cos", cfg)
        value = base + 2 * osc.value
        err = (2 * osc.err_estimate + 4 * mpf(2) ** -mp.prec
               * (abs(base) + abs(shift) + abs(value)))
        return SeriesResult(+value, +err, osc.terms_used, cfg.tol())
