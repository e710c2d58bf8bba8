"""Series summation, acceleration and quadrature kernels.

Pure functions of their inputs; no shared mutable state.  The summation and
quadrature kernels return a :class:`~stieltjes.core.SeriesResult` whose
``converged`` flag signals whether the requested tolerance was met
(convergence shortfalls do not raise; domain violations do).

Kernels:

* ``sum_alternating_accelerated`` -- Euler transform of alternating series.
* ``sum_trig_averaged`` -- iterated Cesaro averaging of conditionally
  convergent trigonometric series.
* ``integrate_adaptive`` -- tanh-sinh quadrature on finite or infinite ranges.
* ``integrate_oscillatory`` -- zero-aligned panels with Euler acceleration.
* ``sum_oscillatory_ibp`` -- sum over n of oscillatory integrals: the first
  N by ``integrate_oscillatory``, the rest by an integration-by-parts tail
  over Hurwitz zeta values (Briggs, Bourguet and Poisson routes).
* ``hurwitz_zeta_em`` -- Euler-Maclaurin summation of zeta(s, x) and its
  s-derivatives for s > 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real)

_SAFETY = 4  # heuristic multiplier on last-difference error estimates


def _euler_diagonal(partials):
    """Repeated pairwise averaging of partial sums; returns (best, err).

    The diagonal of the averaging table realizes the Euler transform of an
    alternating series; convergence stops improving once rounding noise
    dominates, so we track the best successive-difference seen.
    """
    row = list(partials)
    best = row[-1]
    best_err = abs(row[-1] - row[-2]) if len(row) > 1 else mpf("inf")
    prev = row[-1]
    while len(row) >= 2:
        row = [(row[j] + row[j + 1]) / 2 for j in range(len(row) - 1)]
        d = abs(row[-1] - prev)
        prev = row[-1]
        if d < best_err:
            best_err = d
            best = row[-1]
    return best, best_err


def sum_alternating_accelerated(term: Callable[[int], mpf],
                                cfg: PrecisionConfig = DEFAULT_CFG,
                                n0: int = 1) -> SeriesResult:
    """Euler-accelerated sum of an (eventually) alternating series.

    ``term(n)`` must include its sign.  Terms are consumed from ``n0``
    upward; the budget grows geometrically until the accelerated tail
    estimate drops below cfg tolerance or ``max_terms`` is hit.
    """
    with cfg.workprec(40):
        tol = cfg.tol()
        n_cap = min(cfg.max_terms, max(96, 6 * cfg.digits))
        terms = []
        n = n0
        batch = max(32, 2 * cfg.digits)
        best = mpf(0)
        best_err = mpf("inf")
        while True:
            while len(terms) < batch and len(terms) < n_cap:
                terms.append(mp.mpf(term(n)))
                n += 1
            if all(t == 0 for t in terms):
                return SeriesResult(mpf(0), mpf(0), len(terms), True)
            partials = []
            acc = mpf(0)
            for t in terms:
                acc += t
                partials.append(acc)
            best, best_err = _euler_diagonal(partials)
            if best_err * _SAFETY <= tol or len(terms) >= n_cap:
                break
            batch = min(n_cap, int(batch * 1.7) + 8)
        err = best_err * _SAFETY
        return SeriesResult(+best, +err, len(terms), bool(err <= tol))


def _cancellation_window(x: mpf, cap: int = 64) -> int:
    """Window length w <= cap for which sum_{i<w} e^(2*pi*i*x*i) nearly cancels.

    Continued-fraction denominators of x give the candidates; the full-period
    window of a rational x cancels exactly.
    """
    fx = float(x)
    cands = {Fraction(fx).limit_denominator(cap).denominator}
    for small in (8, 16, 32):
        cands.add(Fraction(fx).limit_denominator(small).denominator)
    best_w, best_m = 1, None
    for w in sorted(cands):
        m = abs(math.sin(math.pi * w * fx))
        if best_m is None or m < best_m:
            best_m, best_w = m, w
    return max(1, best_w)


def _window_average(seq, w):
    out = []
    acc = sum(seq[:w])
    out.append(acc / w)
    for j in range(len(seq) - w):
        acc += seq[j + w] - seq[j]
        out.append(acc / w)
    return out


def sum_trig_averaged(coeff: Callable[[int], mpf], mode: str, x,
                      cfg: PrecisionConfig = DEFAULT_CFG,
                      odd_multiples: bool = False,
                      n0: int = 1, kmax: int = 6) -> SeriesResult:
    """Iterated-averaging evaluation of sum_n coeff(n)*trig(2*pi*n*x).

    With ``odd_multiples`` the phase is (2n+1)*pi*x instead.  Valid for
    0 < x < 1 and coefficients decaying (eventually monotonically) to zero;
    repeated Cesaro averaging over a cancellation window damps the
    conditionally convergent oscillation, and the error estimate is the last
    averaged difference times a safety factor.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    with cfg.workprec(40):
        x = mpf(x)
        if not 0 < x < 1:
            raise DomainError(f"x must lie in (0,1), got {x}")
        tol = cfg.tol()
        w = _cancellation_window(x)
        # sinpi/cospi: exact at rational multiples and exact argument
        # reduction for large n
        trig = mp.sinpi if mode == "sin" else mp.cospi
        terms = []
        n_next = n0

        def extend(upto):
            nonlocal n_next
            while n_next < upto:
                n = n_next
                arg = (2 * n + 1) * x if odd_multiples else 2 * n * x
                terms.append(coeff(n) * trig(arg))
                n_next += 1

        n_total = max(24 * w, 512)
        best, best_err = mpf(0), mpf("inf")
        while True:
            n_total = min(n_total, cfg.max_terms)
            extend(n0 + n_total)
            if all(t == 0 for t in terms):
                return SeriesResult(mpf(0), mpf(0), len(terms), True)
            seq = []
            acc = mpf(0)
            for t in terms:
                acc += t
                seq.append(acc)
            est = seq[-1]
            diffs = []
            for _ in range(kmax):
                if len(seq) < w + 2:
                    break
                seq = _window_average(seq, w)
                diffs.append(abs(seq[-1] - est))
                est = seq[-1]
                if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
                    break
            err = (diffs[-1] if diffs else mpf("inf")) * _SAFETY
            if err < best_err:
                best, best_err = est, err
            if best_err <= tol or n_total >= cfg.max_terms or n_total >= 2 ** 18:
                break
            n_total *= 2
        return SeriesResult(+best, +best_err, len(terms), bool(best_err <= tol))


def integrate_adaptive(f: Callable[[mpf], mpf], a, b,
                       cfg: PrecisionConfig = DEFAULT_CFG,
                       points=None) -> SeriesResult:
    """Adaptive (tanh-sinh) quadrature of f over [a, b]; b may be mp.inf.

    Integrable endpoint singularities are handled by the double-exponential
    transform.  ``points`` optionally lists interior split points.
    """
    with cfg.workprec(40):
        tol = cfg.tol()
        interval = [mpf(a)] + [mpf(p) for p in (points or [])] + [b if b == mp.inf else mpf(b)]
        val, err = mp.quad(f, interval, error=True)
        if err > tol * (1 + abs(val)):
            val, err = mp.quad(f, interval, error=True, maxdegree=8)
        converged = bool(err <= tol * (1 + abs(val)))
        return SeriesResult(+val, +mpf(err), 0, converged)


def integrate_oscillatory(g: Callable[[mpf], mpf], freq, a=0,
                          cfg: PrecisionConfig = DEFAULT_CFG,
                          mode: str = "cos",
                          max_half_periods: int = 80) -> SeriesResult:
    """int_a^inf g(t)*trig(freq*t) dt for smooth g decaying to zero.

    Panels are aligned to the zeros of the oscillator; the alternating panel
    contributions are Euler-accelerated.  This kernel targets moderate
    accuracy (~1e-6 and better for 1/t-type decay), not full precision.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    # moderate-accuracy kernel: cap the quadrature precision well above the
    # ~1e-6 target instead of inheriting slow full-precision panels
    with mp.workprec(min(PrecisionConfig(digits=max(16, min(cfg.digits, 24))).working_bits,
                         cfg.working_bits) + 16):
        freq = mpf(freq)
        a = mpf(a)
        if freq <= 0:
            raise DomainError("freq must be positive")
        trig = mp.cos if mode == "cos" else mp.sin
        # crude decay check on the tail of g
        probe = [abs(g(a + mpf(10) ** k)) for k in (1, 2, 3)]
        if probe[2] > probe[0] * 10:
            raise DomainError("g does not appear to decay; oscillatory tail diverges")
        half = mp.pi / freq
        # first oscillator zero past a
        if mode == "cos":
            k0 = mp.floor(freq * a / mp.pi - mpf(1) / 2) + 1
            z0 = (k0 + mpf(1) / 2) * half
        else:
            z0 = (mp.floor(freq * a / mp.pi) + 1) * half
        while z0 <= a:
            z0 += half

        def panel(lo, hi):
            return mp.quad(lambda t: g(t) * trig(freq * t), [lo, hi],
                           method="gauss-legendre")

        head = panel(a, z0)
        partials = []
        acc = mpf(0)
        tol = max(cfg.tol(), mpf(10) ** -12)
        best, best_err = mpf(0), mpf("inf")
        for i in range(max_half_periods):
            acc += panel(z0 + i * half, z0 + (i + 1) * half)
            partials.append(acc)
            if len(partials) >= 8 and len(partials) % 4 == 0:
                best, best_err = _euler_diagonal(partials)
                if best_err * _SAFETY <= tol:
                    break
        if len(partials) >= 2:
            best, best_err = _euler_diagonal(partials)
        elif partials:
            best, best_err = partials[-1], abs(partials[-1])
        err = best_err * _SAFETY
        return SeriesResult(+(head + best), +err, len(partials), bool(err <= tol))


# ---------------------------------------------------------------------------
# Functions of the form P(log(t+x)) * (t+x)^(-s): their t-derivatives stay in
# that form, which both the Euler-Maclaurin engine and the integration-by-parts
# tail of sum_oscillatory_ibp rely on.
# ---------------------------------------------------------------------------

def _horner(P, L):
    """P(L) for coefficients P in ascending powers."""
    pv = mpf(0)
    for c in reversed(P):
        pv = pv * L + c
    return pv


def _log_poly_step(P, c):
    """Coefficients of P' - c*P.

    d/dt [P(L) (t+x)^-c] = (P'(L) - c P(L)) (t+x)^-(c+1) with L = log(t+x),
    so P_{r+1} = _log_poly_step(P_r, s + r) gives the r-th derivative of
    P(L) (t+x)^-s as P_r(L) (t+x)^-(s+r).
    """
    out = [-c * p for p in P]
    for d in range(1, len(P)):
        out[d - 1] += d * P[d]
    return out


def sum_oscillatory_ibp(poly, s, x, mode: str, N: int, w=0,
                        cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} n^-w int_0^inf P(log(t+x)) (t+x)^-s trig(2 pi n t) dt.

    ``poly`` holds the coefficients of P (ascending).  The first N integrals
    come from :func:`integrate_oscillatory`.  For n > N each integral is
    expanded by parts at t = 0, with g(t) = P(log(t+x)) (t+x)^-s:

        cos: sum_{k>=1} (-1)^k g^(2k-1)(0) / (2 pi n)^(2k)
        sin: sum_{k>=0} (-1)^k g^(2k)(0) / (2 pi n)^(2k+1)

    so the n-sum of the r-th term is zeta(r + 1 + w, N + 1) / (2 pi)^(r+1).
    The expansion is asymptotic: it is summed until its terms stop
    decreasing or fall below the tolerance, and the last term computed is
    the tail's error estimate.  The sine form needs w > 0.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    if mode == "sin" and not w > 0:
        raise DomainError("the sine form needs w > 0")
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if not x > 0:
            raise DomainError("x must be positive")
        P = [mpf(c) for c in poly]
        if len(P) == 1:
            g = lambda t: P[0] * (x + t) ** (-s)
        else:
            g = lambda t: _horner(P, mp.log(x + t)) * (x + t) ** (-s)
        two_pi = 2 * mp.pi
        total = mpf(0)
        err = mpf(0)
        for n in range(1, N + 1):
            res = integrate_oscillatory(g, two_pi * n, 0, cfg, mode=mode)
            weight = mpf(n) ** (-w)
            total += res.value * weight
            err += res.err_estimate * weight
        tol = cfg.tol()
        L = mp.log(x)
        odd = 1 if mode == "cos" else 0  # derivative orders in the expansion
        Pr = P
        prev = mpf("inf")
        mag = mpf(0)
        tail_terms = 0
        for r in range(400):
            if r % 2 == odd:
                term = ((-1) ** ((r + 1) // 2) * _horner(Pr, L) * x ** (-s - r)
                        / two_pi ** (r + 1)
                        * hurwitz_zeta_em(r + 1 + w, N + 1, 0, cfg))
                mag = abs(term)
                if mag > prev:  # asymptotic series turned; stop
                    break
                total += term
                tail_terms += 1
                prev = mag
                if mag < tol * (1 + abs(total)):
                    break
            Pr = _log_poly_step(Pr, s + r)
        err += mag
        return SeriesResult(+total, +err, N + tail_terms, bool(err <= tol))


# ---------------------------------------------------------------------------
# Euler-Maclaurin engine for absolutely convergent Hurwitz-zeta sums.
# This is the workhorse for s > 1 (integer or real) and its s-derivatives,
# used by polygamma, the Bell-series route and many tail corrections.
# ---------------------------------------------------------------------------

def _em_log_power_sum(poly, s, x, cfg, extra_bits=0):
    """sum_{k>=0} P(log(k+x)) * (k+x)^(-s) via Euler-Maclaurin, s > 1.

    ``poly`` holds the coefficients of P (ascending); the Bernoulli
    corrections take their derivatives from :func:`_log_poly_step`.
    """
    with cfg.workprec(40 + extra_bits):
        s = mpf(s)
        x = mpf(x)
        deg = len(poly) - 1
        M = max(12, 2 * cfg.digits // 3, int(4 - x) + 1)
        tot = mpf(0)
        for k in range(M):
            tot += _horner(poly, mp.log(k + x)) * (k + x) ** (-s)
        A = mp.log(M + x)
        # integral of each monomial: int_M^inf ln^d(t+x) (t+x)^-s dt
        mono = []
        for d in range(deg + 1):
            I = mpf(0)
            for i in range(d + 1):
                I += (mp.factorial(d) / mp.factorial(i)) * A ** i / (s - 1) ** (d - i + 1)
            mono.append(I * mp.exp(-(s - 1) * A))
        tot += mp.fsum(poly[d] * mono[d] for d in range(deg + 1))
        # f(M)/2 and Bernoulli corrections
        powM = (M + x) ** (-s)
        tot += _horner(poly, A) * powM / 2
        # stopping must be relative: for large s the value itself is tiny
        # and callers scale it back up
        scale = abs(tot) + abs(powM) + mpf(2) ** (-mp.prec)
        P = [mpf(c) for c in poly]
        r = 0
        prev = mpf("inf")
        tol = cfg.tol() * mpf(10) ** (-6)
        while r < 400:
            P = _log_poly_step(P, s + r)
            r += 1
            if r % 2 == 1:
                u = (r + 1) // 2
                f_r = _horner(P, A) * (M + x) ** (-s - r)
                corr = -mp.bernoulli(2 * u) / mp.factorial(2 * u) * f_r
                tot += corr
                mag = abs(corr)
                if mag > prev:  # asymptotic series turned; stop
                    break
                prev = mag
                if mag < tol * scale:
                    break
        return +tot


def hurwitz_zeta_em(s, x=1, deriv: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> mpf:
    """j-th s-derivative of zeta(s, x) by direct summation with EM tail.

    Valid (and fast) in the absolutely convergent region s > 1; this is the
    reference engine the analytically continued routes are checked against.
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if not s > 1:
            raise DomainError("hurwitz_zeta_em requires s > 1")
        if not x > 0:
            raise DomainError("x must be positive")
        # d^j/ds^j (k+x)^(-s) = (-log(k+x))^j (k+x)^(-s)
        poly = [mpf(0)] * deriv + [mpf(-1) ** deriv]
        return _em_log_power_sum(poly, s, x, cfg)
