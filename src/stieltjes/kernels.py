"""Series summation, acceleration and quadrature kernels.

Pure functions of their inputs; no shared mutable state.  The summation and
quadrature kernels return a :class:`~stieltjes.core.SeriesResult` for the
tolerance of their ``cfg``, whose ``converged`` property tells whether the
estimate met it (convergence shortfalls do not raise; domain violations do).

Kernels:

* ``sum_alternating_accelerated`` -- Euler transform of an alternating
  series, with a heuristic claim; no route of the package uses it.
* ``sum_majorized`` -- direct summation until a remainder bound supplied
  with each term meets the request (Bell, Srivastava-Choi).
* ``sum_trig_averaged`` -- conditionally convergent trigonometric series
  sum f(n) trig(2 pi n x) for completely monotone f: a direct head and an
  Euler-Abel transform of the tail in z = e^(2 pi i x), at a cost that does
  not depend on the period of x (the name is historical: the first body
  averaged over Cesaro windows; the benchmark calls the kernel by name).
* ``integrate_adaptive`` -- tanh-sinh quadrature on finite or infinite
  ranges, stepped level by level until two levels agree at the request.
* ``integrate_oscillatory`` -- zero-aligned panels with Euler acceleration,
  at a precision sized to its stop, the request but at most 1e-12.
* ``sum_oscillatory_ibp`` -- sum over n of oscillatory integrals: the first
  N by ``integrate_oscillatory``, the rest by an integration-by-parts tail
  over Hurwitz zeta values (Briggs, Bourguet and Poisson routes), with N
  the shortest head whose tail reaches the integrals' stop.
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
_MAX_HALF_PERIODS = 80  # panel budget of integrate_oscillatory
_TS_EXTRA_LEVELS = 2  # integrate_adaptive's levels past mpmath's default
TS_GUARD_BITS = 40  # integrate_adaptive's nodes carry these beyond the digits


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
                                cfg: PrecisionConfig = DEFAULT_CFG
                                ) -> SeriesResult:
    """Euler-accelerated sum_{n>=1} term(n) of an alternating series.

    ``term(n)`` must include its sign.  The budget grows geometrically until
    the accelerated tail estimate drops below cfg tolerance or ``max_terms``
    is hit.  The estimate leaves out the error of the terms themselves.
    """
    with cfg.workprec(40):
        tol = cfg.tol()
        n_cap = min(cfg.max_terms, max(96, 6 * cfg.digits))
        terms = []
        batch = max(32, 2 * cfg.digits)
        best = mpf(0)
        best_err = mpf("inf")
        while True:
            while len(terms) < batch and len(terms) < n_cap:
                terms.append(mp.mpf(term(len(terms) + 1)))
            if all(t == 0 for t in terms):
                return SeriesResult(mpf(0), mpf(0), len(terms), tol)
            partials = []
            acc = mpf(0)
            for t in terms:
                acc += t
                partials.append(acc)
            best, best_err = _euler_diagonal(partials)
            if best_err * _SAFETY <= tol or len(terms) >= n_cap:
                break
            batch = min(n_cap, int(batch * 1.7) + 8)
        return SeriesResult(+best, best_err * _SAFETY, len(terms), tol)


def sum_majorized(term: Callable[[int], tuple], base, limit: int,
                  cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} t_n, summed directly until a proven remainder bound
    meets the request.

    ``term(n)`` returns (t_n, a claim on the error of t_n, a bound on
    sum_{k>n} |t_k|); the bound may be infinite while the caller cannot
    prove one yet.  The sum stops at the first n whose bound is at most a
    quarter of tol * max(1, |base + partial sum|), ``base`` being what the
    caller adds to the sum, or after ``limit`` terms.  The claim is the
    last bound (infinite when no term was allowed) plus the terms' claims
    plus the rounding of the running sum, which runs at the caller's
    precision.
    """
    tol = cfg.tol()
    total, claims, mag = mpf(0), mpf(0), mpf(0)
    remainder = mpf("inf")
    n = 0
    while n < limit:
        n += 1
        t, claim, remainder = term(n)
        total += t
        claims += claim
        mag += abs(t)
        if remainder <= tol * max(1, abs(base + total)) / 4:
            break
    rounding = (n + 2) * mpf(2) ** -mp.prec * mag
    return SeriesResult(+total, remainder + claims + rounding, n, tol)


def _abel_plan(bits: int, a: float) -> tuple[int, int]:
    """(N, K): head length and difference orders for about ``bits`` bits.

    Modelled on f(n) = 1/n, whose k-th tail term is f(N) / a times
    1 / (C(N+k, k) a^k) with a = |1 - z| = 2 sin(pi x).  For a given N + K
    that is smallest at N = K / a.  N >= 2K keeps N beyond e^H_K ~ 1.8 K,
    where (-1)^k Delta^k (log n / n) >= 0 holds for every k <= K.
    """
    target = bits * math.log(2)
    K = 1
    while True:
        N = max(math.ceil(K / a), 2 * K)
        gain = (math.lgamma(N + K + 1) - math.lgamma(N + 1)
                - math.lgamma(K + 1) + K * math.log(a))
        if gain >= target:
            return N, K
        K += 1


def sum_trig_averaged(coeff: Callable[[int], mpf], mode: str, x,
                      cfg: PrecisionConfig = DEFAULT_CFG,
                      odd_multiples: bool = False,
                      n0: int = 1) -> SeriesResult:
    """sum_{n>=n0} coeff(n) trig(2 pi n x) by an Euler-Abel transform.

    With ``odd_multiples`` the phase is (2n+1) pi x instead.  Valid for
    0 < x < 1.  (The name is historical, from an earlier Cesaro-averaging
    body; it is kept because the benchmark calls the kernel by name.)

    The series is Re or Im of sum f(n) z^n with z = e^(2 pi i x), times
    e^(i pi x) for odd multiples.  The head n0 <= n < N is summed directly.
    Summation by parts in z turns the tail into

        z^N / (1 - z) sum_{k<K} (z / (1 - z))^k Delta^k f(N),

    Delta the forward difference, |z / (1 - z)| = 1 / (2 sin pi x).  Each
    term is real after taking the part, since z / (1 - z) = i e^(i pi x) /
    (2 sin pi x).  If Delta^K f keeps one sign beyond N, the remainder is at
    most |1 - z|^-K |Delta^(K-1) f(N)|: the modulus of the last term kept.

    This assumes coeff is completely monotone (up to sign) from N on,
    (-1)^k Delta^k f >= 0 for every k: true of 1/n, log(1+1/n),
    (2 pi n)^(s-1) with s < 1, 1/n - log(1+1/n) and (log 2 pi n)^j / n
    beyond a point that grows with k.  At every order k the signs of
    f(N + k), Delta^(k-1) f(N + 1) and Delta^k f(N) are checked; when one
    fails, or the terms stop falling before the target, N is doubled.  N and K come from the target bits and
    sin(pi x) alone (:func:`_abel_plan`), so the cost is O(bits / sin pi x)
    whatever the period of x, and the difference table carries
    K log2(2 / |1 - z|) guard bits.  The error estimate is the remainder
    bound plus a bound on the rounding; the result is unconverged when
    ``cfg.max_terms`` coefficients do not reach 10^-digits max(1, |value|).
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    with cfg.workprec(40):
        x = mpf(x)
        if not 0 < x < 1:
            raise DomainError(f"x must lie in (0,1), got {x}")
        tol = cfg.tol()
        bits = int(math.ceil(float(-mp.log(tol, 2)))) + 4
        a = max(float(2 * mp.sinpi(x)), 1e-300)  # |1 - z|
        N, K = _abel_plan(bits, a)
        k_cap = K + K // 2 + 8
        # the difference table loses up to log2(2/a) bits per order
        table_guard = (k_cap * math.log2(max(1.0, 2 / a))
                       + math.log2(1 + 1 / a))
        while True:
            N = min(max(N, n0), n0 + max(cfg.max_terms - 2, 0))
            k_max = min(k_cap, cfg.max_terms - (N - n0) - 1)
            wp = bits + int(2 * math.log2(N + k_cap)) + 40
            res, retry = _abel_sum(coeff, mode, x, odd_multiples, n0, N,
                                   k_max, wp, wp + int(table_guard), tol)
            if res.converged or not retry or k_max < k_cap:
                return res
            N *= 2


def _abel_sum(coeff, mode, x, odd, n0, N, k_max, head_wp, wp, tol):
    """One Euler-Abel evaluation with head length N and at most k_max
    difference orders, the head at head_wp bits and the tail at wp; returns
    the SeriesResult and whether a longer head could do better."""
    trig = mp.sinpi if mode == "sin" else mp.cospi
    with mp.workprec(head_wp):
        head = mpf(0)
        mag = mpf(0)
        for n in range(n0, N):
            f = coeff(n)
            head += f * trig((2 * n + odd) * x)
            mag += abs(f)
    with mp.workprec(wp):
        a = 2 * mp.sinpi(x)
        m = 2 * N + odd
        f = coeff(N)
        edge = [f]  # edge[j] = Delta^j f(N + k - j); edge[-1] = Delta^k f(N)
        sign = -1 if f < 0 else 1
        big = abs(f)  # largest |f| in the difference table
        apow = a  # a^(k+1)
        tail = mpf(0)
        tmag = mpf(0)  # sum of |term_k|
        noise = mpf(0)  # sum of (k + 8) (2/a)^k / a: the table's rounding
        prev = bound = mpf("inf")
        retry = True
        for k in range(k_max + 1):
            d = edge[-1]
            # Delta^j f(n) must have sign (-1)^j sign(f(N)); checked at
            # (j, n) = (0, N + k), (k - 1, N + 1) and (k, N)
            if (edge[0] * sign < 0 or d * sign * (-1) ** k < 0
                    or (k and edge[-2] * sign * (-1) ** k > 0)):
                bound = mpf("inf")  # not completely monotone from N on
                break
            size = abs(d) / apow  # |term_k|
            if k:
                # remainder after terms < k; Delta^k f keeps its sign
                bound = prev
                if prev <= tol * max(1, abs(head + tail)) / 4:
                    retry = False
                    break
                if size > prev:
                    break  # the terms turned before the target
            if k == k_max:
                break
            # term k = Delta^k f(N) Re|Im(i^(k+1) e^(i pi (m+k-1) x)) / a^(k+1)
            tail += d / apow * trig((m + k - 1) * x + mpf(k + 1) / 2)
            tmag += size
            noise += (k + 8) * mpf(2) ** k / apow
            prev = size
            apow *= a
            f = coeff(N + k + 1)
            big = max(big, abs(f))
            row = [f]
            for e in edge:
                row.append(row[-1] - e)
            edge = row
        total = head + tail
        # coefficients to a few ulps, trig arguments to n ulps, running sums
        eps_head, eps = mpf(2) ** -head_wp, mpf(2) ** -wp
        rounding = (eps_head * (mag * (16 + 11 * N) + 8 * abs(total))
                    + eps * (big * noise + tmag * (16 + 10 * (N + k_max))))
        return SeriesResult(+total, bound + rounding, N - n0 + len(edge),
                            tol), retry


def integrate_adaptive(f: Callable[[mpf], mpf], a, b,
                       cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """Tanh-sinh quadrature of f over [a, b]; b may be mp.inf.

    Integrable endpoint singularities are handled by the double-exponential
    transform, whose nodes carry 40 bits beyond the working precision (the
    singular cases need them).  The rule stops at the request, not at the
    node precision: it steps mpmath's tanh-sinh levels one at a time (each
    halves the step and reuses the sum of the level before) and stops once
    two successive levels agree within tol/16 of max(1, |value|).  Each
    level roughly doubles the correct digits, so that difference bounds the
    error of the last level with room to spare.  Levels run up to mpmath's
    default degree for the node precision and, if those do not agree,
    ``_TS_EXTRA_LEVELS`` beyond it.

    The claim is the last difference, plus the end terms |w f| of the
    level that reaches closest to the ends (what the nodes leave out beyond
    them integrates to less; it matters only where f is singular at an
    end), plus 16 ulps of max(1, |value|) for the rounding.  It covers the
    quadrature and its rounding, not the error of the integrand's own
    values: psi(t) sin(pi t) at 20 digits, for instance, is good to about
    1e-29 only.  ``terms_used`` counts the integrand evaluations.
    """
    with cfg.workprec(TS_GUARD_BITS):
        prec = mp.prec
        tol = cfg.tol()
        rule = mp._tanh_sinh
        a = mpf(a)
        b = b if b == mp.inf else mpf(b)
        levels = []
        evals = 0
        diff = ends = mpf("inf")
        with mp.workprec(prec + 20):  # mp.quad's summation precision
            for degree in range(1, rule.guess_degree(prec)
                                + _TS_EXTRA_LEVELS + 1):
                nodes = rule.get_nodes(a, b, degree, prec)
                evals += len(nodes)
                # mpmath's step sum, term by term: the last pair of every
                # level is its outermost
                terms = [w * f(t) for t, w in nodes]
                levels.append(mp.fsum(terms) / 2 ** degree
                              + (levels[-1] / 2 if levels else 0))
                ends = min(ends, abs(terms[-1]) + abs(terms[-2]))
                if degree > 1:
                    diff = abs(levels[-1] - levels[-2])
                    if diff <= tol / 16 * max(1, abs(levels[-1])):
                        break
        value = +levels[-1]
        rounding = 16 * mpf(2) ** -prec * max(1, abs(value))
        return SeriesResult(value, diff + ends + rounding, evals, tol)


def _oscillatory_stop(cfg: PrecisionConfig) -> mpf:
    """Where the oscillatory integrals stop: the request, but not below
    1e-12, which their Euler-accelerated panels do not reliably pass."""
    return max(cfg.tol(), mpf(10) ** -12)


def integrate_oscillatory(g: Callable[[mpf], mpf], freq,
                          cfg: PrecisionConfig = DEFAULT_CFG,
                          mode: str = "cos") -> SeriesResult:
    """int_0^inf g(t)*trig(freq*t) dt for smooth g decaying to zero.

    Panels are aligned to the zeros of the oscillator; the alternating panel
    contributions (at most ``_MAX_HALF_PERIODS`` half periods) are
    Euler-accelerated until they reach :func:`_oscillatory_stop` (~1e-6 and
    better for 1/t-type decay); the result is judged against the request
    all the same.  The panels run at 24 bits beyond that stop, so their
    precision follows it, and the claim is the acceleration's error plus
    the sum of the panels' own quadrature errors.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    stop = _oscillatory_stop(cfg)
    with mp.workprec(math.ceil(-math.log2(stop)) + 24):
        freq = mpf(freq)
        if freq <= 0:
            raise DomainError("freq must be positive")
        trig = mp.cos if mode == "cos" else mp.sin
        # crude decay check on the tail of g
        probe = [abs(g(mpf(10) ** k)) for k in (1, 2, 3)]
        if probe[2] > probe[0] * 10:
            raise DomainError("g does not appear to decay; oscillatory tail diverges")
        half = mp.pi / freq
        z0 = half / 2 if mode == "cos" else half  # first zero past 0

        quad_err = mpf(0)

        def panel(lo, hi):
            nonlocal quad_err
            val, err = mp.quad(lambda t: g(t) * trig(freq * t), [lo, hi],
                               method="gauss-legendre", error=True)
            quad_err += err
            return val

        head = panel(0, z0)
        partials = []
        acc = mpf(0)
        best, best_err = mpf(0), mpf("inf")
        for i in range(_MAX_HALF_PERIODS):
            acc += panel(z0 + i * half, z0 + (i + 1) * half)
            partials.append(acc)
            if len(partials) >= 8 and len(partials) % 4 == 0:
                best, best_err = _euler_diagonal(partials)
                if best_err * _SAFETY <= stop:
                    break
        if len(partials) >= 2:
            best, best_err = _euler_diagonal(partials)
        elif partials:
            best, best_err = partials[-1], abs(partials[-1])
        return SeriesResult(+(head + best), best_err * _SAFETY + quad_err,
                            len(partials), cfg.tol())


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


def _ibp_tail(P, s, x, odd: int, N: int, w, stop, cfg):
    """(value, error estimate, terms) of the n > N part of
    :func:`sum_oscillatory_ibp`, by its integration-by-parts expansion."""
    two_pi = 2 * mp.pi
    L = mp.log(x)
    Pr = P
    total = mpf(0)
    prev = mpf("inf")
    mag = mpf(0)
    terms = 0
    for r in range(400):
        if r % 2 == odd:
            scale = (x ** (-s - r) / two_pi ** (r + 1)
                     * hurwitz_zeta_em(r + 1 + w, N + 1, 0, cfg).value)
            mag = _horner([abs(c) for c in Pr], abs(L)) * abs(scale)
            if mag > prev:  # asymptotic series turned; stop
                break
            total += (-1) ** ((r + 1) // 2) * _horner(Pr, L) * scale
            terms += 1
            prev = mag
            if mag < stop:
                break
        Pr = _log_poly_step(Pr, s + r)
    return total, mag, terms


def sum_oscillatory_ibp(poly, s, x, mode: str, w=0,
                        cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} n^-w int_0^inf P(log(t+x)) (t+x)^-s trig(2 pi n t) dt.

    ``poly`` holds the coefficients of P (ascending).  The first N integrals
    come from :func:`integrate_oscillatory`.  For n > N each integral is
    expanded by parts at t = 0, with g(t) = P(log(t+x)) (t+x)^-s:

        cos: sum_{k>=1} (-1)^k g^(2k-1)(0) / (2 pi n)^(2k)
        sin: sum_{k>=0} (-1)^k g^(2k)(0) / (2 pi n)^(2k+1)

    so the n-sum of the r-th term is zeta(r + 1 + w, N + 1) / (2 pi)^(r+1).
    The expansion is asymptotic: it is summed until its terms stop
    decreasing or fall below :func:`_oscillatory_stop`, where the integrals
    stop too, and the last term computed is the tail's error estimate.
    Both tests read the envelope sum_d |P_r,d| |L|^d in place of |P_r(L)|,
    which can pass near zero and fake a turn.  N is the smallest head
    length whose tail reaches that stop (tried on the tail alone: EM zeta
    values, no integrals).  The smallest tail term falls like
    e^(-2 pi N x), so the kernel takes x >= 1 only, where N stays small.
    The sine form needs w > 0.
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    if mode == "sin" and not w > 0:
        raise DomainError("the sine form needs w > 0")
    with cfg.workprec(40):
        s = as_real(s)
        x = as_real(x)
        if not x >= 1:
            raise DomainError("x must be >= 1 (shift by a recurrence)")
        P = [mpf(c) for c in poly]
        stop = _oscillatory_stop(cfg)
        odd = 1 if mode == "cos" else 0  # derivative orders in the expansion
        N = 1
        while True:
            total, err, tail_terms = _ibp_tail(P, s, x, odd, N, w, stop, cfg)
            if err < stop:
                break
            N += 1
        if len(P) == 1:
            g = lambda t: P[0] * (x + t) ** (-s)
        else:
            g = lambda t: _horner(P, mp.log(x + t)) * (x + t) ** (-s)
        for n in range(1, N + 1):
            res = integrate_oscillatory(g, 2 * mp.pi * n, cfg, mode)
            weight = mpf(n) ** (-w)
            total += res.value * weight
            err += res.err_estimate * weight
        return SeriesResult(+total, +err, N + tail_terms, cfg.tol())


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


def _em_tail_guard(deg: int, s, y) -> float:
    """Bits the continued tail loses to cancellation, for s < 1, y = N + x.

    Per monomial L^d the tail is (-1)^(d+1) d! y^(1-s) e_d(-u)/(1-s)^(d+1),
    u = (1-s) log y, e_d(z) = sum_{i<=d} z^i/i!; its terms' absolute values
    add up to e_d(u) in place of |e_d(-u)|.  That ratio, against no less
    than the last term u^d/d! (a scale :func:`_em_guard_bits` covers), is at
    most 1.6 d bits, so 64 + 2d bits compute it."""
    if s >= 1 or deg == 0:
        return 0.0
    with mp.workprec(64 + 2 * deg):
        u = (1 - mpf(s)) * mp.log(y)
        term = pos = alt = worst = mpf(1)
        for i in range(1, deg + 1):
            term *= u / i
            pos += term
            alt += -term if i % 2 else term
            worst = max(worst, pos / max(abs(alt), term))
        return float(mp.log(worst, 2))


def _em_log_power_sum(poly, s, x, cfg) -> SeriesResult:
    """sum_{k>=0} P(log(k+x)) (k+x)^-s by Euler-Maclaurin, for every real s.

    ``poly`` holds the coefficients of P (ascending).  The first N terms
    are summed directly; the tail is int_N^inf, continued analytically for
    s < 1 and at s = 1 taken as its finite part -A^(d+1)/(d+1) per monomial
    L^d (A = log(N+x)), which makes the sum gamma_m(x) for P = L^m.  Then
    f(N)/2 and K Bernoulli corrections, whose derivatives come from
    :func:`_log_poly_step`.  N, K and the guard bits come from
    :func:`_em_plan` (target digits, s, deg P), never from x; below s = 1
    :func:`_em_tail_guard` adds the tail's cancellation.  The error estimate
    is the remainder bound of :func:`_em_remainder_log` plus a bound on the
    rounding of every term summed, the tail's terms each counted."""
    deg = len(poly) - 1
    tol = cfg.tol()
    bits = int(math.ceil(float(-mp.log(tol, 2))))
    monomial = sum(1 for c in poly if c != 0) == 1
    N, K, guard = _em_plan(bits, float(s), deg, monomial)
    # s keeps the caller's bits: rounding s to wp bits would cost s - 1 its
    # relative precision near the pole
    s = mp.convert(s)
    x = mpf(x)
    guard += _em_tail_guard(deg, s, N + x)
    wp = bits + int(guard) + (N + 2 * K).bit_length() + 16
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
            mag += abs(tail)
        else:
            # below s = 1 the terms alternate: their absolute values count
            tail = tail_mag = mpf(0)
            for d in range(deg + 1):
                terms = [mp.factorial(d) / mp.factorial(i) * A ** i
                         / (s - 1) ** (d - i + 1) for i in range(d + 1)]
                tail += P[d] * mp.fsum(terms)
                tail_mag += abs(P[d]) * mp.fsum(terms, absolute=True)
            grow = mp.exp((1 - s) * A)
            tail *= grow
            mag += tail_mag * grow
        pw = mp.exp(-s * A)  # (N+x)^-(s+r)
        half = _horner(P, A) * pw / 2
        tot += tail + half
        mag += abs(half)
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
        return SeriesResult(+tot, +err, N + K, tol)


def _pole_bits(s) -> int:
    """About log2(1/|s - 1|) for an exact s near 1, else 0.  Ints and
    floats need none: the working precision holds them exactly."""
    if isinstance(s, Fraction):
        d = s - 1
    elif isinstance(s, mpf):
        d = mp.fsub(s, 1, exact=True)
    else:
        return 0
    m = mp.mag(d)  # |d| <= 2^m; -inf at s = 1, nan for a NaN s
    return -m if isinstance(m, int) and m < 0 else 0


def hurwitz_zeta_em(s, x=1, deriv: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """j-th s-derivative of zeta(s, x) by the Euler-Maclaurin engine.

    Valid for every real s != 1 (the analytic continuation below 1) and
    x > 0, at a cost that does not grow with x.  An exact s (a Fraction, or
    an mpf of any precision) is rounded with log2(1/|s - 1|) extra bits, so
    s - 1 keeps the working relative precision next to the pole.
    """
    with cfg.workprec(40 + _pole_bits(s)):
        s = as_real(s)
    with cfg.workprec(40):
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
