"""Gauss-Legendre panels whose error is bounded off the real line, and the
oscillatory sums that run on them.

:func:`integrate_analytic` and :func:`sum_oscillatory` are two of the
package's kernels; their callers import them where they call them, and
the package's own table hands out ``sum_oscillatory`` on first use, so
that a process that never integrates does not compile this module.  For
f analytic on the Bernstein ellipse E_rho of a panel and at most M there,
the n-point rule errs by at most (64/15) M rho^-2n / (rho^2 - 1) on
[-1, 1] (Trefethen, *Approximation Theory and Approximation Practice*,
Thm 19.3); the caller supplies M, and panels are bisected until their
bounds meet the request (as Johansson, arXiv:1802.07942, does in ball
arithmetic).  The nodes of one rule per node precision are kept in a
process-wide table, :func:`_gl_nodes`, at most ``GL_TABLES`` of them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from mpmath import mp, mpc, mpf
from mpmath.libmp import (fone, from_man_exp, mpf_div, mpf_exp, mpf_sub,
                          round_nearest)

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real)

_LOG_64_15 = math.log(64 / 15)
GL_TABLES = 8  # Gauss-Legendre node tables kept (least recently used go first)
GL_BUDGET = 1 << 13  # integrand evaluations after which integrate_analytic stops


def _gl_degree(prec: int) -> int:
    """Nodes per panel of :func:`integrate_analytic` at node precision
    ``prec``, even: a panel's bound falls like rho^-2n, so about a quarter
    of the bits asked for (prec less the 64 guard bits) at rho near 4."""
    return max(16, 2 * ((prec - 64) // 8 + 1))


@lru_cache(maxsize=GL_TABLES)
def _gl_nodes(prec: int) -> tuple:
    """((x_k, w_k), ...): the positive nodes of the n-point Gauss-Legendre
    rule on [-1, 1], n = :func:`_gl_degree` (prec), and their weights, as
    mpf at ``prec``; the rule is symmetric.

    Newton's method runs on Python integers at W = prec + 20 bits, from a
    float root polished in floats; P_n and P_n' come from the three-term
    recurrence, which is stable on [-1, 1] and loses a few units per
    step, so the nodes and the weights 2 / ((1 - x^2) P_n'(x)^2) are good
    to well within 2^-prec.  A table depends on ``prec`` alone, never on
    the calls made before."""
    n = _gl_degree(prec)
    W = prec + 20
    one = 1 << W

    def legendre(x):  # (P_n(x), P_n'(x)) at 2^-W for |x| < 1 at 2^-W
        p0, p1 = one, x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * ((x * p1) >> W) - k * p0) // (k + 1)
        return p1, n * ((((x * p1) >> W) - p0) << W) // (((x * x) >> W) - one)

    table = []
    for k in range(1, n // 2 + 1):
        t = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(3):
            p0, p1 = 1.0, t
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * t * p1 - j * p0) / (j + 1)
            t -= p1 * (t * t - 1) / (n * (t * p1 - p0))
        x = int(t * 2 ** 53) << (W - 53)
        for _ in range(12):
            p, dp = legendre(x)
            step = (p << W) // dp
            x -= step
            if abs(step) < 1 << 8:
                break
        _, dp = legendre(x)
        w = (2 << 3 * W) // ((one - ((x * x) >> W)) * ((dp * dp) >> W))
        table.append((mp.make_mpf(from_man_exp(x, -W, prec, round_nearest)),
                      mp.make_mpf(from_man_exp(w, -W, prec, round_nearest))))
    return tuple(table)


def _panel_bound(bound, c: float, h: float, n: int, j: int):
    """(log of the least Gauss-Legendre bound found, the j it took): the
    n-point rule on [c - h, c + h] errs by at most (64/15) M h rho^-2n /
    (rho^2 - 1) for M = exp(bound(c, major, minor)) >= |f| on the panel's
    Bernstein ellipse E_rho, whose semi-axes are h (rho +- 1/rho) / 2
    (Trefethen, ATAP, Thm 19.3, scaled by h).  rho = 1 + 2^(j/2) walks
    from the given j, down while the bound is infinite, then to a local
    least bound."""
    def err(j):
        rho = 1 + 2 ** (j / 2)
        major, minor = h * (rho + 1 / rho) / 2, h * (rho - 1 / rho) / 2
        return (_LOG_64_15 + bound(c, major, minor) + math.log(h)
                - 2 * n * math.log(rho) - math.log(rho * rho - 1))

    best = err(j)
    while best == math.inf and j > -12:  # the ellipse reaches a singularity
        j -= 1
        best = err(j)
    for step in (1, -1):
        while -12 < j + step < 24:
            e = err(j + step)
            if not e < best:
                break
            best, j = e, j + step
    return best, j


def integrate_analytic(f: Callable, a, b, bound: Callable,
                       cfg: PrecisionConfig = DEFAULT_CFG,
                       rest=0) -> SeriesResult:
    """Gauss-Legendre quadrature of f over [a, b] on panels whose error is
    bounded off the real line.

    f is analytic on a neighbourhood of [a, b] and returns an mpf, or an
    (mpf, its own error bound) pair, a plain tuple.  ``bound(c, major,
    minor)``, on floats, returns the log of an M >= |f| on the Bernstein
    ellipse E_rho of the panel [c - h, c + h], the ellipse with centre c,
    foci c +- h and semi-axes major = h (rho + 1/rho) / 2 along the real
    line and minor = h (rho - 1/rho) / 2 across it, or inf where f is not
    analytic on it; by the maximum-modulus principle it suffices to bound
    |f| on the ellipse's boundary.  Every panel runs the same rule, n =
    :func:`_gl_degree` nodes from :func:`_gl_nodes` at the working
    precision, and its error is at most (64/15) M h rho^-2n / (rho^2 - 1)
    (:func:`_panel_bound`).  A panel whose least bound exceeds its share
    of tol/16 - ``rest``, in proportion to its length, is bisected, so
    panels crowd where f varies fast, as about a narrow peak.
    ``rest`` bounds what the caller leaves out of [a, b], such as the tail
    of an infinite range.

    The claim is ``rest``, plus the panels' bounds, plus sum h w_k |err_k|
    over the nodes where f reports its own error, plus 2^(4-prec)
    sum h w_k |f_k| for the rounding of the nodes, weights, products and
    sums (the nodes' own error moving f by no more than a few ulps of it,
    which is assumed).  Whether it is a proof is up to ``bound``: a
    majorant makes it one, a sampled M only an estimate.  Once the
    splitting would pass ``GL_BUDGET`` evaluations it stops, the panels
    left keep their bounds, and the result is unconverged when those miss
    the request.  ``terms_used`` counts the integrand evaluations.
    """
    with cfg.workprec():
        prec = mp.prec
        tol = cfg.tol()
        nodes = _gl_nodes(prec)
        n = 2 * len(nodes)
        a, b = mpf(a), mpf(b)
        share = tol / 16 - rest
        per_length = (float(mp.log(share / (b - a))) if share > 0
                      else -math.inf)
        stack = [(a, b, 2)]
        panels = []  # (lo, hi, log of the panel's bound)
        while stack:
            lo, hi, j = stack.pop()
            h = (hi - lo) / 2
            hf = float(h)
            logerr, j = _panel_bound(bound, float(lo + h), hf, n, j)
            full = (len(panels) + len(stack) + 2) * n > GL_BUDGET
            if logerr <= per_length + math.log(2 * hf) or full:
                panels.append((lo, hi, logerr))
            else:
                stack += [(lo + h, hi, j + 1), (lo, lo + h, j + 1)]
        sums, mag, own, claim = [], [], [], [mpf(rest)]
        for lo, hi, logerr in panels:
            c, h = (lo + hi) / 2, (hi - lo) / 2
            terms = []
            for x, w in nodes:
                for t in (c - h * x, c + h * x):
                    v = f(t)
                    if type(v) is tuple:
                        v, e = v
                        own.append(h * w * abs(e))
                    terms.append(w * v)
            sums.append(mp.fsum(terms) * h)
            mag.append(mp.fsum(terms, absolute=True) * h)
            # the float log of the bound, widened past its rounding
            claim.append(mp.exp(logerr + 2 ** -30 * (1 + abs(logerr)))
                         if logerr < math.inf else mpf("inf"))
        value = mp.fsum(sums)
        err = (mp.fsum(claim) + mp.fsum(own)
               + mp.ldexp(mp.fsum(mag), 4 - prec))
        return SeriesResult(value, err, n * len(panels), tol)


# ---------------------------------------------------------------------------
# The oscillatory sums of the Briggs, Poisson and Bourguet routes, rotated
# onto the imaginary axis, where their integrand is analytic off two rays.
# ---------------------------------------------------------------------------

def _log_expm1(y: float) -> float:
    """log(e^y - 1) for y > 0, without overflow."""
    return y + math.log1p(-math.exp(-y)) if y > 1 else math.log(math.expm1(y))


def _log_abs_poly(Q, t: float) -> float:
    """log sum |q_k| t^k, -inf for a zero polynomial."""
    v = 0.0
    for q in reversed(Q):
        v = v * t + abs(q)
    return math.log(v) if v > 0 else -math.inf


def sum_oscillatory(poly, s, x, mode: str,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} n^-w int_0^inf P(log(t+x)) (t+x)^-s trig(2 pi n t) dt.

    ``poly`` holds the coefficients of P (ascending), x >= 1 and s >= 1.
    The mode picks the weight: w = 0 for the cosine form, w = 1 for the
    sine form, which needs it.  g(t) = P(log(t+x)) (t+x)^-s is analytic
    for Re t > -x and falls like a power of 1/|t|, so each integral turns
    by t = iu onto the imaginary axis (Hermite's rotation, as in
    Abel-Plana):

        int_0^inf g(t) e^(2 pi i n t) dt = i int_0^inf g(iu) e^(-2 pi n u) du.

    Under the integral the n-sum has a closed form, W_0(u) =
    1/expm1(2 pi u) and W_1(u) = -log(-expm1(-2 pi u)), so the cosine sum
    is -int Im g(iu) W_0(u) du and the sine sum int Re g(iu) W_1(u) du.
    As W_1' = -2 pi W_0, the sine sum is, by parts, 2 pi int G W_0 du,
    where G(u) = Im Phi(x + iu) and Phi(y) = y^(1-s) R(log y), with
    R' + (1 - s) R = P, is the antiderivative of g(y - x); Phi is real on
    the real axis, so G(0) = 0 and the boundary terms vanish.  For P = 1
    and s = 1, G(u) = atan(u/x): Binet's second formula for log Gamma.
    Either way the integrand is kappa Im phi(x + iu) W_0(u) with
    phi(y) = y^e Q(log y) and (kappa, e, Q) = (1, -s, -P) or
    (2 pi, 1 - s, R).

    Its continuation H(z) W_0(z), H(z) = (phi(x + iz) - phi(x - iz))/2i,
    is analytic off the rays [i, i inf) and -[i, i inf) (the poles of W_0
    at ik and the branch points of phi at +-ix), with a removable point
    at 0.  One :func:`integrate_analytic` call sums it over [0, U], and
    its result is returned.  Its ``bound`` is a majorant on each panel's
    ellipse E, from bounds on |y|, arg y and |log y| over the points y
    that E reaches and |W_0(u + iv)| = e^(-pi u) / (2 sqrt(sinh^2 pi u +
    sin^2 pi v)), the lesser of:

    * for E within u >= u_L > 0: max |phi| / expm1(2 pi u_L);
    * for E within |v| <= beta < 1: max |phi'| over the segments from
      x - iz to x + iz, where Re y >= x - beta, which bounds |H(z)/z|,
      times e^(-pi u_L) q, which bounds |z W_0(z)|, q = 1/4 for
      beta <= 1/2 and 1/(4 (1 - beta)) above (Jordan's inequality on
      sin pi v, and sinh^2 pi u >= (pi u)^2).

    What lies beyond U is at most kappa U^e e^(-2 pi U) / (1 -
    e^(-2 pi U)) sum_k |q_k| int_0^inf (Lambda + t)^k e^(-2 pi t) dt,
    Lambda = log(x + U) + pi/2, and enters as the kernel's ``rest``; U is
    the least integer >= 2 that puts it under tol/64.  The claim is a
    bound, up to the floats in which the majorant is computed and the
    integrand's own rounding below.  At large s, |y|^-s is a peak of
    width x/sqrt(s) whose phase turns s u/x, so the panels there shrink
    to about x/s: at x = 1 and 20 digits, s = 1e4 takes 1,458
    evaluations and s = 1e5 4,086, and from s ~ 1e6 the node budget ends
    the call unconverged rather than wrong.

    The integrand's rounding is covered without a term of its own.  The
    nodes run at cfg.working_bits, 64 bits past the digits asked for.
    Each value is a few dozen roundings of a few ulps (a complex log and
    power or an atan2, a Horner step, an exp) of kappa |Q|(|log y|) |y|^e
    W_0(u) min(1, u), min(1, u) for the imaginary part, whose parts are
    O(u) at u = 0.  For x >= 1, s >= 1 and deg Q <= 2 with |q_k| <= 1
    (every route of the package: P = 1 or L), |y|^e <= 1 and
    int W_0(u) u du = 1/24, so that adds to fewer than
    2^5 (log(x + U) + 3)^2 ulps, 2^-38 of the request or less while
    log(x + U) < 2^10; another P would need the argument again.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    with cfg.workprec():
        s = as_real(s)
        x = as_real(x)
        if not x >= 1:
            raise DomainError("x must be >= 1 (shift by a recurrence)")
        if not 1 <= s < 2 ** 1000:  # the majorants run on floats
            raise DomainError(f"s must lie in [1, 2^1000), got {s}")
        P = [mpf(c) for c in poly]
        if mode == "cos":
            kappa, e, Q = 1, -s, [-c for c in P]
        else:  # R' + (1 - s) R = P, solved from the top coefficient down
            kappa, e = 2 * mp.pi, 1 - s
            if e == 0:
                Q = [mpf(0)] + [c / (k + 1) for k, c in enumerate(P)]
            else:
                Q = [mpf(0)] * len(P)
                for k in reversed(range(len(P))):
                    Q[k] = (P[k] - ((k + 1) * Q[k + 1] if k + 1 < len(P)
                                    else 0)) / e
        # phi' = y^(e-1) Q1(log y), Q1 = Q' + e Q
        Q1 = [e * q + ((k + 1) * Q[k + 1] if k + 1 < len(Q) else 0)
              for k, q in enumerate(Q)]
        xf, ef = float(x), float(e)
        lk = math.log(float(kappa))
        Qf, Q1f = [float(q) for q in Q], [float(q) for q in Q1]

        def bound(c, ha, beta):
            uL, uR = c - ha, c + ha
            best = math.inf
            if uL > 0:
                lo = math.hypot(max(xf - beta, 0.0), uL)
                hi = math.hypot(xf + beta, uR)
                arg = math.atan2(uR, xf - beta) if xf > beta else math.pi
                lam = max(abs(math.log(lo)), abs(math.log(hi))) + arg
                best = (lk + _log_abs_poly(Qf, lam) + ef * math.log(lo)
                        - _log_expm1(2 * math.pi * uL))
            if beta < 1:
                lo = xf - beta
                umax = max(-uL, uR)
                hi = xf + math.hypot(umax, beta)
                lam = (max(abs(math.log(lo)), abs(math.log(hi)))
                       + math.atan2(umax, lo))
                q = 0.25 if beta <= 0.5 else 0.25 / (1 - beta)
                best = min(best, lk + _log_abs_poly(Q1f, lam)
                           + (ef - 1) * math.log(lo) + math.log(q)
                           - math.pi * uL)
            return best

        def tail(U):
            lam = math.log(xf + U) + math.pi / 2
            moments = [sum(math.comb(k, j) * lam ** (k - j) * math.factorial(j)
                           / (2 * math.pi) ** (j + 1) for j in range(k + 1))
                       for k in range(len(Qf))]
            return (lk + _log_abs_poly([q * m for q, m in zip(Qf, moments)], 1)
                    + ef * math.log(U) - 2 * math.pi * U
                    - math.log1p(-math.exp(-2 * math.pi * U)))

        goal = float(mp.log(cfg.tol() / 64))
        U = 2
        while tail(U) > goal:
            U += 1
        rest = mp.exp(mpf(tail(U)) + 2 ** -20)
        prec = mp.prec
        two_pi = 2 * mp.pi

        def weight(u):  # W_0(u), e^t - 1 at the bits it cancels and 10 more
            t = (two_pi * u)._mpf_
            wp = prec + 10 + max(0, -(t[2] + t[3]))
            return mp.make_mpf(mpf_div(fone, mpf_sub(mpf_exp(t, wp), fone, wp),
                                       prec, round_nearest))

        if e == 0 and len(Q) == 2:  # Binet: Im Q(log y) = q_1 arg y
            def f(u):
                return kappa * Q[1] * mp.atan2(u, x) * weight(u)
        else:
            def f(u):
                y = mpc(x, u)
                phi = mp.polyval(Q[::-1], mp.log(y)) if len(Q) > 1 else Q[0]
                if e:
                    phi = phi * y ** e
                return kappa * phi.imag * weight(u)

        return integrate_analytic(f, 0, U, bound, cfg, rest)
