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
  s-derivatives for every real s != 1, on the engine
  ``_em_log_power_sum`` that also gives gamma_m(x), log Gamma and psi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from mpmath import mp, mpf

from .core import (DEFAULT_CFG, DomainError, PoleError, PrecisionConfig,
                   SeriesResult, as_real)

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
    the tail's error estimate.  Both tests read the envelope
    sum_d |P_r,d| |L|^d in place of |P_r(L)|, which can pass near zero and
    fake a turn.  The sine form needs w > 0.
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
                scale = (x ** (-s - r) / two_pi ** (r + 1)
                         * hurwitz_zeta_em(r + 1 + w, N + 1, 0, cfg).value)
                term = (-1) ** ((r + 1) // 2) * _horner(Pr, L) * scale
                mag = _horner([abs(c) for c in Pr], abs(L)) * abs(scale)
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
# Euler-Maclaurin engine: sum_{k>=0} P(log(k+x)) (k+x)^-s for every real s,
# continued analytically below s = 1 and taken as a finite part at s = 1.
# Hurwitz zeta and its s-derivatives, gamma_m(x), log Gamma, psi and
# polygamma all run on it.
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2 * math.pi)


def _em_remainder_log(A: float, s: float, K: int, deg: int,
                      log_prod: float) -> float:
    """log of the EM remainder bound after K Bernoulli corrections, per unit
    of (N+x)^(1-s) A^deg sum|P|, where A = log(N+x) >= 1 (N >= 4).

    With L = log(t+x), the r-th t-derivative of P(L)(t+x)^-s is
    sum_d P_d (-d/ds)^d [(-1)^r (s)_r (t+x)^-(s+r)]; Cauchy's estimate on
    the circle |sigma - s| = 1/L bounds it by
    e deg! L^deg prod_{i<r} (|s+i| + 1/L) (t+x)^-(s+r) sum|P|.  With
    |B_2K|/(2K)! <= 4/(2 pi)^2K the remainder is at most
    4/(2 pi)^2K int_N^inf |f^(2K)|, integrated in closed form; this needs
    s + 2K > 1.  The bound has no turning point or dip of its own, so it is
    safe to stop on.  ``log_prod`` is sum_{i<2K} log(|s+i| + 1/A).
    """
    return (_em_bound_log(deg, s + 2 * K - 1) + log_prod
            - 2 * K * (_LOG_2PI + A))


def _em_bound_log(deg: int, a: float) -> float:
    """log of 4 e deg! J, where J = int_A^inf u^deg e^(-a u) du / (A^deg
    e^(-aA)) = sum_i deg!/i! A^(i-deg) / a^(deg-i+1) <= (deg+1) deg! / a^p
    with p = 1 for a >= 1 and p = deg + 1 below (A >= 1)."""
    p = 1 if a >= 1 else deg + 1
    return (math.log(4 * (deg + 1)) + 1 + 2 * math.lgamma(deg + 1)
            - p * math.log(a))


def _em_guard_bits(N: int, s: float, deg: int) -> float:
    """Bits lost between the terms of the sum and max(1, |value|).

    For s < 1 the head terms reach (N+x)^(1-s) while the value can be O(1);
    the log powers add up to log(N+1) per degree (one more for the finite
    part at s = 1), and for s > 1 the tail is (s-1) times smaller than its
    scale.  None of this grows with x: for x >= 1 the value grows with the
    terms.  Each power (k+x)^-s = exp(-s log(k+x)) loses another
    log2(|s| log(k+x)) bits, covered for |log x| <= 16.
    """
    return (max(0.0, 1 - s) * math.log2(N + 1)
            + (deg + 1) * math.log2(max(1.0, math.log(N + 1)))
            + math.log2(1 + abs(s - 1)) + math.log2(1 + abs(s)) + 14)


def _em_relative_log(N: int, s: float, K: int, deg: int,
                     log_prod: float) -> float:
    """log of a bound on R_K / max(1, |value|) over every x > 0, for s > 1
    and P = +-L^deg; R_K is bounded as in :func:`_em_remainder_log`, at
    y = N + x with A = log y, as Ck y^(1-s-2K) A^deg.

    For x < 1, max(1, |value|) >= 1 and the bound is largest at x -> 0.
    For x >= 1 no term changes sign, so |value| >= log(1+x)^deg (1+x)^-s
    (the k = 1 term), and R/|value| <= Ck (log(N+1)/log 2)^deg h(y) with
    h(y) = y^(1-2K) (1 - (N-1)/y)^s, which peaks at
    y* = (N-1)(1 + s/(2K-1)).  For large s this y* lies far beyond N, so a
    short head suffices: where N + x is small the tail is negligible
    against the first terms, and where it matters the corrections converge.
    ``log_prod`` is sum_{i<2K} log(|s+i| + 1/log N).
    """
    a = s + 2 * K - 1
    log_ck = _em_bound_log(deg, a) + log_prod - 2 * K * _LOG_2PI
    near = -a * math.log(N) + deg * math.log(math.log(N + 1))
    y = max(N + 1, (N - 1) * (1 + s / (2 * K - 1)))
    far = (deg * math.log(math.log(N + 1) / math.log(2))
           + (1 - 2 * K) * math.log(y) + s * math.log1p(-(N - 1) / y))
    return log_ck + max(near, far)


def _em_corrections(N: int, bits: int, s: float, deg: int, monomial: bool,
                    cap: int):
    """Fewest corrections K <= cap whose bound meets the target with head
    length N, or None if the bound turns first (N too short)."""
    A = math.log(N)
    target = -(bits + _em_guard_bits(N, s, deg)) * math.log(2)
    prev = math.inf
    log_prod = 0.0
    for K in range(1, cap + 1):
        log_prod += (math.log(abs(s + 2 * K - 2) + 1 / A)
                     + math.log(abs(s + 2 * K - 1) + 1 / A))
        if s + 2 * K <= 1:
            continue  # the remainder integral needs s + 2K > 1
        excess = _em_remainder_log(A, s, K, deg, log_prod) - target
        if s > 1 and monomial:
            excess = min(excess, _em_relative_log(N, s, K, deg, log_prod)
                         + (bits + 14) * math.log(2))
        if excess <= 0:
            return K
        if excess > prev:
            return None  # past the smallest bound
        prev = excess
    return None


@lru_cache(maxsize=1024)
def _em_plan(bits: int, s: float, deg: int, monomial: bool):
    """(N, K, guard): head length, Bernoulli corrections and guard bits.

    Chosen for the worst case over x: the remainder bound is checked at
    x -> 0 (N + x >= N, and the bound relative to the scale of the terms
    falls as x grows), or for s > 1 and a monomial P against
    max(1, |value|) over every x (:func:`_em_relative_log`).  So N and K
    depend on the target bits, s and P only, never on x.  Head lengths go
    up a geometric grid from about bits log 2 / (2 pi), below which the
    corrections cannot reach the target; the plan needing the fewest terms
    N + K wins (a head term and a correction cost about the same), and
    each N is allowed only the corrections that would still be cheaper.
    """
    best = None
    N = max(4, int(bits * math.log(2) / (2 * math.pi)))
    while best is None or N < sum(best):
        cap = 8192 if best is None else sum(best) - N - 1
        K = _em_corrections(N, bits, s, deg, monomial, cap)
        if K is not None:
            best = (N, K)
        N += max(1, N // 4)
    N, K = best
    return N, K, _em_guard_bits(N, s, deg)


def _em_log_power_sum(poly, s, x, cfg) -> SeriesResult:
    """sum_{k>=0} P(log(k+x)) (k+x)^-s by Euler-Maclaurin, for every real s.

    ``poly`` holds the coefficients of P (ascending).  The first N terms
    are summed directly; the tail is int_N^inf, continued analytically for
    s < 1 and at s = 1 taken as its finite part -A^(d+1)/(d+1) per monomial
    L^d (A = log(N+x)), which makes the sum gamma_m(x) for P = L^m.  Then
    f(N)/2 and K Bernoulli corrections, whose derivatives come from
    :func:`_log_poly_step`.  N, K and the guard bits come from
    :func:`_em_plan` (target digits, s, deg P), never from x.  The error
    estimate is the remainder bound of :func:`_em_remainder_log` plus a
    bound on the rounding of every term summed.
    """
    deg = len(poly) - 1
    tol = cfg.tol()
    bits = int(math.ceil(float(-mp.log(tol, 2))))
    monomial = sum(1 for c in poly if c != 0) == 1
    N, K, guard = _em_plan(bits, float(s), deg, monomial)
    wp = bits + int(guard) + (N + 2 * K).bit_length() + 16
    # s and x keep the caller's precision: rounding s to wp bits would cost
    # s - 1 its relative precision near the pole
    s = mpf(s)
    x = mpf(x)
    with mp.workprec(wp):
        P = [mpf(c) for c in poly]
        tot = mpf(0)
        mag = mpf(0)
        for k in range(N):
            if deg:
                L = mp.log(k + x)
                t = _horner(P, L) * mp.exp(-s * L)
            else:
                t = P[0] * (k + x) ** (-s)
            tot += t
            mag += abs(t)
        A = mp.log(N + x)
        # int_N^inf P(L) (t+x)^-s dt = int_A^inf P(u) e^((1-s)u) du
        if s == 1:
            tail = -mp.fsum(P[d] * A ** (d + 1) / (d + 1)
                            for d in range(deg + 1))
        else:
            tail = mpf(0)
            for d in range(deg + 1):
                tail += P[d] * mp.fsum(
                    mp.factorial(d) / mp.factorial(i) * A ** i
                    / (s - 1) ** (d - i + 1) for i in range(d + 1))
            tail *= mp.exp((1 - s) * A)
        pw = mp.exp(-s * A)  # (N+x)^-(s+r)
        half = _horner(P, A) * pw / 2
        tot += tail + half
        mag += abs(tail) + abs(half)
        inv = 1 / (N + x)
        Pr = P
        fact = 1
        for r in range(2 * K - 1):
            Pr = _log_poly_step(Pr, s + r)  # P_(r+1)
            pw *= inv
            if r % 2 == 0:
                fact *= (r + 1) * (r + 2)
                corr = -mp.bernoulli(r + 2) / fact * _horner(Pr, A) * pw
                tot += corr
                mag += abs(corr)
        scale = mp.fsum(abs(c) for c in P) * A ** deg
        Af, sf = float(A), float(s)
        log_prod = sum(math.log(abs(sf + i) + 1 / Af) for i in range(2 * K))
        remainder = scale * mp.exp(
            _em_remainder_log(Af, sf, K, deg, log_prod) + (1 - s) * A)
        # rounding: each term to within its condition number in ulps
        cond = N + 2 * K + deg + 4 + (abs(s) + 1) * max(abs(mp.log(x)), A)
        err = remainder + mag * cond * mpf(2) ** (-wp)
        return SeriesResult(+tot, +err, N + K,
                            bool(err <= tol * max(1, abs(tot))))


def hurwitz_zeta_em(s, x=1, deriv: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """j-th s-derivative of zeta(s, x) by the Euler-Maclaurin engine.

    Valid for every real s != 1 (the analytic continuation below 1) and
    x > 0, at a cost that does not grow with x.
    """
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if s == 1:
            raise PoleError("zeta(s,x) has a simple pole at s = 1")
        if not x > 0:
            raise DomainError("x must be positive")
        if deriv < 0:
            raise DomainError("derivative order must be >= 0")
        # d^j/ds^j (k+x)^(-s) = (-log(k+x))^j (k+x)^(-s)
        poly = [mpf(0)] * deriv + [mpf(-1) ** deriv]
        return _em_log_power_sum(poly, s, x, cfg)
