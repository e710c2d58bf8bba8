"""Hurwitz zeta and its s-derivatives by independent representations.

Routes:

* ``zeta_hasse`` -- the globally convergent binomial double series, summed as
  a head (n <= N, one dot product with exact rational weights, guard bits
  growing with n) plus an analytic tail: under the Laplace representation
  of the inner differences the outer weights collapse into elementary
  generating functions, leaving one smooth integral over [0, inf) per
  derivative order and difference term, with one exponential per node.
  Accurate to the configured digits for any real s != 1.  The integrand's
  x- and s-independent factors at the quadrature nodes are kept in
  process-wide tables (:func:`_node_table`, :func:`_tail_table`), at most
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

``zeta``, ``zeta_prime0`` and ``zeta_doubleprime0`` run the route named in
:data:`stieltjes.routes.TABLE` and return its own result; the latter two
take ``em`` (the default), ``hasse`` or ``fourier``.  Hasse stays as the
independent cross-check.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import iv, mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real, ball, combine, require_positive, shift_up)
from .kernels import (TS_GUARD_BITS, _horner, _pole_rounded,
                      hurwitz_zeta_em, integrate_adaptive, sum_majorized,
                      sum_oscillatory, sum_trig_averaged)
from . import gammafuncs, routes
from .combinatorics import bell_complete, binomial

_HEAD_TERMS = 32
# how many node, tail, coefficient and head-weight tables the process keeps
# (least recently used go first); a node table holds up to ~1,500 nodes,
# 0.5-1 MB at 20-30 digits
_TAIL_TABLES = 16
# where the Srivastava-Choi route shifts x before its series: a shift step
# costs a power, a term an EM call and gains log2(x) bits
SHIFT_FLOOR = 64


def _recip_gamma_derivs(alpha, jmax: int, cfg: PrecisionConfig) -> list:
    """d^p/dalpha^p [1/Gamma(-alpha)] for p = 0..jmax, each a SeriesResult.

    1/Gamma(-alpha) = -alpha * exp(u), u = -log Gamma(1-alpha); exponential
    derivatives via complete Bell polynomials Y_p in psi^(i)(1-alpha).  The
    inputs, log Gamma and psi^(i-1) on the EM engine, enter the glue with
    their own claims.  Y_p takes the mean-value form over the inputs' box,
    Y_p(m) + sum_i C(p, i) Y_(p-i)(box) (u_i - m_i) at the midpoints m: the
    plain interval recurrence adds the inputs' errors in absolute value
    where the exact derivatives cancel, three digits wider at p = 14.  The
    inputs run jmax digits past the request, which the Bell polynomials
    spend up to order jmax.
    """
    one_minus = 1 - alpha
    wide = cfg.replace(digits=cfg.digits + jmax)
    used = [gammafuncs.log_gamma(one_minus, wide)] + [
        gammafuncs.digamma(one_minus, wide) if i == 1
        else gammafuncs.polygamma(i - 1, one_minus, wide)
        for i in range(1, jmax + 1)]

    def glue(log_gamma, *psi):
        u = [(-1) ** i * v for i, v in enumerate(psi)]
        mid = [v.mid for v in u]
        box = [bell_complete(u[:p]) for p in range(jmax + 1)]
        Y = [bell_complete(mid[:p]) + sum(
            (u[i - 1] - mid[i - 1]) * (binomial(p, i) * box[p - i])
            for i in range(1, p + 1)) for p in range(jmax + 1)]
        expu = iv.exp(-log_gamma)
        return [-(iv.mpf(alpha) * Y[p] + (p * Y[p - 1] if p else 0)) * expu
                for p in range(jmax + 1)]

    return combine(glue, *used, tol=cfg.tol())


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
def _head_weights(N: int) -> tuple:
    """a_k = (-1)^k sum_{n=k}^N C(n,k)/(n+1) for k <= N, as exact
    fractions: sum_{n<=N} 1/(n+1) Delta_n[f](x) = sum_k a_k f(k+x), and
    sum_k |a_k| <= sum_n 2^n/(n+1) < 2^(N+1)."""
    return tuple((-1) ** k * sum(Fraction(binomial(n, k), n + 1)
                                 for n in range(k, N + 1))
                 for k in range(N + 1))


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
        closed = mpf(-1) ** i * t
        if i:
            z = mp.expm1(t)
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

    Delta_n[f](x) := sum_k (-1)^k C(n,k) f(k+x).  Returns {j: result}, each
    result claiming the same err and counting the head length as its terms.

    The head, n <= N, is sum_k a_k f(k+x) with the exact weights of
    :func:`_head_weights`; err adds its rounding, Sum_k |a_k| |f(k+x)| <=
    2^(N+1) max |f| times the ulps of f.  The tail, n > N, writes
    y^c = y^r y^alpha (alpha = c - r <= 0) with y^alpha in its Laplace
    form; it is the sum over i <= r of phi_i = Delta_i[y^r](x) times

        int_0^inf V_{i,N-i}(t) exp((alpha+1) L - (x+i) t)
                  sum_p C(j,p) L^(j-p) B_p dt,      L = -log t,

    B_p the 1/Gamma derivatives of :func:`_recip_gamma_derivs`: one
    exponential per node, the weight sum one Horner pass in L.  Each
    integral runs once over [0, inf) on ``kernels.integrate_adaptive``, or
    over (0, t*) and (t*, inf) when the integrand's peak t* lies past 2
    (large s), and stops at the request.  err adds, over every j, the
    quadrature's estimate and an integral of the integrand's bound: the
    B_p's errors plus the integrand's rounding, V's Horner steps included,
    and the exponent's, |(alpha+1) L - (x+i) t| <= (x+i+|alpha|+2)(t+|L|)
    ulps.  The bound's integral runs at a looser tolerance on the same
    digits, so on the first levels of the same nodes.

    The phi_i multiply the tail's errors by up to Sum |phi_i|, 4e14 at
    r = 15 and x = 9/10, so when that sum exceeds 1, B, both integrals and
    the nodes run its digits past the request; the results are still
    judged at the request.  The integrals read w, -log t
    and V_{i,N-i}(t) from the shared tables for (N, i) and the node
    precision, filling in the nodes no earlier call visited; a node is
    only ever served at the precision it was computed at, so a warm call
    returns the same bits as a cold one.
    """
    c = mpf(c)
    x = require_positive(x)
    r = max(0, int(mp.ceil(c))) if c > 0 else 0
    alpha = c - r
    N = max(_HEAD_TERMS, r + 8)
    jmax = max(js)
    extra = N + 64
    with cfg.workprec(extra):
        eps = mpf(2) ** -mp.prec
        logs = [mp.log(k + x) for k in range(N + 1)]
        powc = [mp.exp(c * L) for L in logs]
        weights = [mpf(a.numerator) / a.denominator for a in _head_weights(N)]
        values = {}
        err_total = mpf(0)
        for j in js:
            fvals = [p * L ** j for p, L in zip(powc, logs)]
            values[j] = mp.fdot(weights, fvals)
            # |f| and its rounding: log(k+x) to 2 ulps absolute, so f to
            # (2j + 4 + 2|c L|) ulps of max(1, |L|)^j e^(cL)
            f_max = max(max(1, abs(L)) ** j * p for L, p in zip(logs, powc))
            cond = N + 2 * j + 8 + 2 * abs(c) * max(abs(L) for L in logs)
            err_total += eps * cond * f_max * mpf(2) ** (N + 1)
        # analytic tail; quadrature only needs the target tolerance, so it
        # runs at the request's precision (the head carries the guard bits),
        # raised by the digits the phi_i multiply its errors by
        phis = [_poly_delta(i, r, x) for i in range(r + 1)]
        spread = sum(abs(phi) for phi in phis)
        tcfg = cfg
        if spread > 1:
            raised = int(mp.ceil(mp.log10(spread)))
            tcfg = cfg.replace(digits=cfg.digits + raised,
                               tolerance=cfg.tol() / 10 ** raised)
        B = _recip_gamma_derivs(alpha, jmax, tcfg)
        node_bits = tcfg.working_bits + TS_GUARD_BITS
        nodes = _node_table(node_bits)
        eps_q = mpf(2) ** -node_bits
        # V to 2 ulps per Horner step, and the weight sum of the integrand
        amplify = node_bits + 4 * N + 16 * (jmax + 2)
        loose = tcfg.replace(tolerance=tcfg.tol() * 4)
        power = alpha + 1

        def tail_integrand(i, weight):
            """t -> V(t) exp((alpha+1) L - (x+i) t) weight(t, L)."""
            table = _tail_table(N, i, node_bits)
            rate = x + i

            def f(t):
                if t <= 0:
                    return mpf(0)
                node = nodes.get(t)
                if node is None:
                    node = nodes[t] = (-mp.expm1(-t), -mp.log(t))
                w, L = node
                V = table.get(t)
                if V is None:
                    V = table[t] = _weighted_tail(i, N - i, t, w)
                return V * mp.exp(power * L - rate * t) * weight(t, L)
            return f

        def ranges(i):
            """[0, inf), cut at the peak t* of t^(-alpha-1) e^(-(x+i)t)
            when t* > 2 (large s), so that the quadrature's nodes cannot
            step over it."""
            peak = (-alpha - 1) / (x + i)
            if peak > 2:
                return (0, peak), (peak, mp.inf)
            return ((0, mp.inf),)

        for j in js:
            if j == 0 and alpha == 0:
                continue  # series terminates: differences of y^r vanish past r
            # the weight sum in powers of L, its coefficients' errors and
            # moduli: L^d carries C(j, d) B_(j-d)
            P = [binomial(j, d) * B[j - d].value for d in range(j + 1)]
            P_err = [binomial(j, d) * B[j - d].err_estimate
                     for d in range(j + 1)]
            P_abs = [abs(v) for v in P]
            tail = mpf(0)
            for i in range(r + 1):
                if phis[i] == 0:
                    continue

                def bound(t, L, i=i):
                    rho = eps_q * (amplify
                                   + (x + i + abs(alpha) + 2) * (t + abs(L)))
                    return (_horner(P_err, abs(L))
                            + rho * _horner(P_abs, abs(L)))

                integrand = tail_integrand(i, lambda t, L: _horner(P, L))
                for a, b in ranges(i):
                    val = integrate_adaptive(integrand, a, b, tcfg)
                    J = integrate_adaptive(tail_integrand(i, bound), a, b,
                                           loose)
                    tail += phis[i] * val.value
                    err_total += abs(phis[i]) * (val.err_estimate
                                                 + 2 * J.value
                                                 + J.err_estimate)
            values[j] = values[j] + tail
        values = {j: +v for j, v in values.items()}
        err_total += 4 * eps * sum(abs(v) for v in values.values())
        return {j: SeriesResult(v, +err_total, N + 1, cfg.tol())
                for j, v in values.items()}


def zeta_hasse(s, x=1, deriv: int = 0,
               cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """d^j/ds^j zeta(s, x) from the globally convergent binomial series.

    The pole factor 1/(s-1) is differentiated analytically and combined with
    the series derivatives by the Leibniz rule, so s = 0 evaluations are
    exact in the pole part.  s is rounded as :func:`kernels.hurwitz_zeta_em`
    rounds it, so s - 1 keeps its working precision next to the pole; only
    s = 1 itself is refused.
    """
    s = _pole_rounded(s, cfg)
    with cfg.workprec(40):
        x = as_real(x)
        if deriv < 0:
            raise DomainError("derivative order must be >= 0")
        # the tail's peak t* ~ s must be a number its quadrature can reach
        if not math.isfinite(float(s)):
            raise DomainError(f"s must lie within float range, got {s}")
        parts = _hasse_parts(list(range(deriv + 1)), 1 - s, x, cfg)
        pole = iv.mpf(s) - 1

        def leibniz(*part):
            return (-1) ** deriv * sum(
                binomial(deriv, i) * math.factorial(i) / pole ** (i + 1)
                * part[deriv - i] for i in range(deriv + 1))

        return combine(leibniz, *(parts[j] for j in range(deriv + 1)),
                       tol=cfg.tol(), terms=parts[0].terms_used)


def _gamma_one_minus(s, cfg: PrecisionConfig) -> SeriesResult:
    """Gamma(1 - s), with no terms of its own counted.

    log Gamma(1 - s) = zeta'(0, 1 - s) + log(2 pi)/2 on the EM engine, run
    to tol / max(1, |log Gamma|) so that the exponential keeps the digits.
    """
    scale = max(1.0, abs(math.lgamma(1 - float(s))))
    lg = hurwitz_zeta_em(0, 1 - s, 1,
                         cfg.replace(tolerance=cfg.tol() / (16 * scale)))
    return combine(lambda z: iv.exp(z + iv.log(2 * iv.pi) / 2), lg,
                   tol=cfg.tol(), terms=0)


def _trig_cfg(cfg: PrecisionConfig, weight) -> PrecisionConfig:
    """cfg for trigonometric sums that enter a result with factor ``weight``."""
    return cfg.replace(tolerance=cfg.tol() / (8 * max(1, abs(weight))))


def zeta_fourier(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the trigonometric expansion, s < 1 and 0 < x <= 1.

    sin(pi s/2) and cos(pi s/2) are taken at s/2 reduced mod 2 exactly:
    on a large argument their intervals would widen to [-1, 1].
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if s >= 1:
            raise DomainError("trigonometric route requires s < 1")
        if not 0 < x <= 1:
            raise DomainError("x must lie in (0, 1]")
        # Gamma(1 - s) is sized by float(s)
        if not math.isfinite(float(s)):
            raise DomainError(f"s must lie within float range, got {s}")
        half = iv.pi * mp.fsub(mp.ldexp(s, -1), 2 * mp.floor(mp.ldexp(s, -2)),
                               exact=True)
        sin_half, cos_half = iv.sin(half), iv.cos(half)
        gam = _gamma_one_minus(s, cfg)
        if x == 1:
            # sums telescope to the plain zeta function; needs s < 0
            if s >= 0:
                raise DomainError("x = 1 requires s < 0 for convergence")
            power = (2 * iv.pi) ** (iv.mpf(s) - 1)
            return combine(lambda g, z: 2 * g * sin_half * power * z,
                           gam, hurwitz_zeta_em(1 - s, 1, 0, cfg),
                           tol=cfg.tol())
        coeff = lambda n: (2 * mp.pi * n) ** (s - 1)
        tcfg = _trig_cfg(cfg, 2 * gam.value)
        return combine(
            lambda g, c, t: 2 * g * (sin_half * c + cos_half * t),
            gam, sum_trig_averaged(coeff, "cos", x, tcfg),
            sum_trig_averaged(coeff, "sin", x, tcfg), tol=cfg.tol())


def zeta(s, x=1, deriv: int = 0, method: str = "auto",
         cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """d^j/ds^j zeta(s, x) by the route ``method`` (``auto``: ``em``, the
    Euler-Maclaurin engine for every s != 1); ``fourier``,
    ``srivastava-choi`` and ``poisson`` take deriv = 0 only."""
    return routes.run("zeta", method, cfg, s=s, x=x, deriv=deriv)


def zeta_prime0(x, via: str = "em",
                cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta'(0, x) by the route ``via``; satisfies log Gamma(x) = zeta'(0,x)
    + log(2 pi)/2."""
    return routes.run("zeta_prime0", via, cfg, x=x)


def zeta_doubleprime0(x, via: str = "em",
                      cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta''(0, x) by the route ``via``."""
    return routes.run("zeta_doubleprime0", via, cfg, x=x)


def _zeta0_fourier(order: int, x, cfg: PrecisionConfig) -> SeriesResult:
    """zeta'(0, x) (order 1) or zeta''(0, x) (order 2) on 0 < x < 1.  With
    L = log 2 pi n + gamma, zeta'(0, x) is the sine sum of L/(pi n) plus
    half the cosine sum of 1/n, and zeta''(0, x) the sine sum of
    (2 L^2 - pi^2/6)/(2 pi n) plus the cosine sum of L/n, each sum run to
    its share of the tolerance."""
    with cfg.workprec(40):
        x = as_real(x)
        if not 0 < x < 1:
            raise DomainError("trigonometric route requires 0 < x < 1")
        g = mp.euler
        if order == 1:
            parts = [(1 / iv.pi, lambda n: (mp.log(2 * mp.pi * n) + g) / n,
                      "sin"), (mpf(1) / 2, lambda n: mpf(1) / n, "cos")]
        else:
            two_pi = 2 * mp.pi
            z2 = mp.pi ** 2 / 6

            def lg(n):
                return mp.log(two_pi * n) + g

            parts = [(1, lambda n: (2 * lg(n) ** 2 - z2) / (two_pi * n),
                      "sin"), (1, lambda n: lg(n) / n, "cos")]
        weights = [iv.mpf(w) for w, _, _ in parts]
        tcfg = _trig_cfg(cfg, mpf(sum(abs(w) for w in weights).b))
        sums = [sum_trig_averaged(c, mode, x, tcfg) for _, c, mode in parts]
        return combine(lambda *t: sum(w * v for w, v in zip(weights, t)),
                       *sums, tol=cfg.tol())


def zeta_srivastava_choi(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) = x^(1-s)/(s-1) - sum_{n>=1} (-1)^n (s)_n/(n! (n+1))
    zeta(s+n, x), for s > 0 (s != 1), where every zeta(s+n, x) converges.

    x is shifted up to ``SHIFT_FLOOR`` by zeta(s, x) = x^-s + zeta(s, x+1),
    then the series is summed by ``kernels.sum_majorized``: (s)_n/n! runs
    in ``iv`` and each zeta(s+n, x) enters as its ball, so every term holds
    its own rounding.  The remainder: each summand of zeta(s+n+1, x) is at
    most 1/x times that of zeta(s+n, x), so past term n the terms fall by
    max(1, (s+n+1)/(n+3))/x per term.  ``terms_used`` counts shift steps
    plus series terms.  s is rounded as :func:`kernels.hurwitz_zeta_em`
    rounds it, so s - 1 keeps its working precision next to the pole.
    """
    s = _pole_rounded(s, cfg)
    with cfg.workprec(40):
        if not s > 0:
            raise DomainError("expansion implemented for s > 0")
        x = require_positive(x)
        x, shift, steps = shift_up(x, lambda v: iv.mpf(v) ** -s, SHIFT_FLOOR)
        poch = [iv.mpf(1)]  # (s)_n / n!

        def term(n):
            gap = mp.fadd(s, n - 1, exact=True)  # s + n - 1
            poch.append(poch[-1] * gap / n)
            # the EM engine rounds s + n by delta, which moves zeta(s+n, x)
            # by at most delta zeta (log x (1 + gap/x) + 1/gap); for small s
            # the first term, near the pole, gets the bits to keep it small
            sigma = mp.fadd(s, n, exact=True)
            em_cfg = cfg
            if n == 1 and s < 1:
                em_cfg = cfg.replace(digits=cfg.digits + int(
                    mp.ceil(-mp.log10(s))))
            delta = sigma * mpf(2) ** -em_cfg.working_bits
            moved = delta * (mp.log(x) * (1 + gap / x) + 1 / gap)
            z = (ball(hurwitz_zeta_em(sigma, x, 0, em_cfg))
                 * (1 + iv.mpf([-moved, moved])))
            ratio = (iv.mpf(sigma) + 1) / (n + 3)
            rho = (iv.mpf(1) if ratio < 1 else ratio) / x
            tail = mp.inf
            if rho < 1:
                first = poch[n] * sigma / ((n + 1) * (n + 2)) * z / x
                tail = mpf((first / (1 - rho)).b)
            return -(-1) ** n * poch[n] / (n + 1) * z, tail

        pole = iv.mpf(s) - 1
        head = iv.mpf(x) ** -pole / pole + shift
        series = sum_majorized(term, mpf(head.mid), cfg)
        return combine(lambda t: head + t, series, tol=cfg.tol(),
                       terms=steps + series.terms_used)


def poisson_zeta(s, x, cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """zeta(s, x) from the Poisson-summation representation, s > 1.

    x^-s/2 + x^(1-s)/(s-1) plus twice the cosine sum of
    kernels.sum_oscillatory; x < 1 is shifted up by
    zeta(s, x) = x^-s + zeta(s, x+1).
    """
    with cfg.workprec(40):
        s = as_real(s)
        if not s > 1:
            raise DomainError("Poisson representation requires s > 1")
        x = require_positive(x)
        x, shift, _ = shift_up(x, lambda v: iv.mpf(v) ** -s)
        X, pole = iv.mpf(x), iv.mpf(s) - 1
        base = X ** -s / 2 + X ** -pole / pole + shift
        return combine(lambda osc: base + 2 * osc,
                       sum_oscillatory([1], s, x, "cos", cfg), tol=cfg.tol())
