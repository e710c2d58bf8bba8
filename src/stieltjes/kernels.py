"""Series summation, acceleration and quadrature kernels.

Pure functions of their inputs; no shared mutable state.  The summation and
quadrature kernels return a :class:`~stieltjes.core.SeriesResult` for the
tolerance of their ``cfg``, whose ``converged`` property tells whether the
estimate met it (convergence shortfalls do not raise; domain violations do).

Kernels:

* ``sum_alternating_accelerated`` -- Euler transform of an alternating
  series, with a heuristic claim; no route of the package uses it.
* ``sum_majorized`` -- direct summation of interval terms until a
  remainder bound supplied with each term meets the request.  Every direct
  series of the package stops here: Bell (``constants.bell_series_gamma``),
  Srivastava-Choi (``hurwitz.zeta_srivastava_choi``), Kolbig's S1 and S2
  (``fourier._kolbig_s1``, ``fourier._kolbig_s2``), Sondow's power series
  (``fourier._sondow_power_series``) and Ramanujan's exponential sum
  (``constants.ramanujan_exp_sum``).
* ``sum_trig_averaged`` -- conditionally convergent trigonometric series
  sum f(n) trig(2 pi n x) for completely monotone f: a direct head and an
  Euler-Abel transform of the tail in z = e^(2 pi i x), at a cost that does
  not depend on the period of x (the name is historical).  Both run on the
  integer fixed point of :mod:`stieltjes.fixed`; only the caller's
  coefficients are mpf (``_abel_sum``).
* ``integrate_adaptive`` -- tanh-sinh quadrature on finite or infinite
  ranges, stepped level by level until two levels agree at the request;
  its claim is an estimate.
* ``integrate_oscillatory`` -- zero-aligned panels with Euler acceleration,
  at a precision sized to its stop, the request but at most 1e-12; no
  route of the package uses it.
* ``hurwitz_zeta_em`` -- Euler-Maclaurin summation of zeta(s, x) and its
  s-derivatives for every real s != 1, on the engine
  ``_em_log_power_sum`` that also gives gamma_m(x), log Gamma and psi, on
  the integer fixed point of :mod:`stieltjes.fixed` like the
  trigonometric kernel and Hasse's tail.

Two more kernels live in :mod:`stieltjes.gauss`, which their callers
import where they call them, so that a process that runs no such route,
such as a ``compute`` on a default route, does not compile it:

* ``gauss.integrate_analytic`` -- Gauss-Legendre panels of one degree per
  node precision, split until a bound on each panel's error from a
  majorant of the integrand on its Bernstein ellipse meets the request
  (Kolbig's integral, ``fourier.kolbig_check``, and
  ``gauss.sum_oscillatory``).
* ``gauss.sum_oscillatory`` -- sum over n of oscillatory integrals of
  P(log(t+x)) (t+x)^-s (Briggs, Bourguet and Poisson routes), rotated onto
  the imaginary axis, where the n-sum has a closed form, and summed as one
  ``integrate_analytic`` integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from mpmath import iv, mp, mpf
from mpmath.libmp import (from_float, from_int, mpf_add, mpf_bernoulli,
                          mpf_cos_sin_pi, mpf_exp, mpf_log, mpf_mul, mpf_neg,
                          mpf_pow_int, round_down, round_up, to_fixed,
                          to_float)

from .core import (DEFAULT_CFG, DomainError, PoleError, PrecisionConfig,
                   SeriesResult, as_real, combine, require_positive)
from . import fixed

_SAFETY = 4  # heuristic multiplier on last-difference error estimates
# terms after which sum_majorized and sum_trig_averaged give up unconverged:
# Sondow's series as |z| -> 1 and the trigonometric sums as x -> 0 or 1
# converge too slowly to finish otherwise
TERM_CAP = 10 ** 6
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

    ``term(n)`` must include its sign.  The terms grow geometrically in
    number until the accelerated tail estimate drops below cfg tolerance or
    they reach max(96, 6 digits).  The estimate leaves out the error of the
    terms themselves.
    """
    with cfg.workprec(40):
        tol = cfg.tol()
        n_cap = max(96, 6 * cfg.digits)
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


def sum_majorized(term: Callable[[int], tuple], base,
                  cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """sum_{n>=1} t_n, summed directly until a proven remainder bound
    meets the request.

    ``term(n)``, called for n = 1, 2, ... in turn, returns (an ``iv``
    interval that holds t_n, an mpf bound on sum_{k>n} |t_k|, infinite
    while the caller cannot prove one yet).  The intervals add up in
    ``iv``, so the sum holds its own rounding.  It stops at the first n
    whose bound is at most tol * max(1, |base + midpoint|) / 4, ``base``
    being what the caller adds to it, or after ``TERM_CAP`` terms,
    unconverged.  Value and claim are the midpoint and the radius plus the
    last bound, as :func:`~stieltjes.core.combine` settles them.
    """
    tol = cfg.tol()
    total = iv.mpf(0)
    n = 0
    while n < TERM_CAP:
        n += 1
        t, remainder = term(n)
        total += t
        if remainder <= tol * max(1, abs(base + mpf(total.mid))) / 4:
            break
    rest = SeriesResult(mpf(0), remainder, n, tol)
    return combine(lambda r: total + r, rest, tol=tol)


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
                      odd_multiples: bool = False) -> SeriesResult:
    """sum_{n>=1} coeff(n) trig(2 pi n x) by an Euler-Abel transform.

    With ``odd_multiples`` the phase is (2n+1) pi x instead.  Valid for
    0 < x < 1; x may be an int, float, str, Fraction or mpf.  ``coeff(n)``
    returns an mpf.  (The name is historical, from an earlier
    Cesaro-averaging body; it is kept because the benchmark calls the kernel
    by name.)

    The series is Re or Im of sum f(n) z^n with z = e^(2 pi i x), times
    e^(i pi x) for odd multiples.  The head 1 <= n < N is summed directly.
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
    fails, or the terms stop falling before the target, N is doubled.  N
    and K come from the target bits and sin(pi x) alone (:func:`_abel_plan`),
    so the cost is O(bits / sin pi x) whatever the period of x, and the
    tail's coefficients carry K log2(2 / |1 - z|) guard bits, which the
    differences lose.  Both sums run on integer fixed point
    (:func:`_abel_sum`, which derives the rounding part of the claim).
    The error estimate is the remainder bound plus that rounding bound; the
    result is unconverged when ``TERM_CAP`` coefficients do not reach
    10^-digits max(1, |value|).
    """
    if mode not in ("sin", "cos"):
        raise ValueError("mode must be 'sin' or 'cos'")
    with cfg.workprec(40):
        x = as_real(x)
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
            N = min(N, max(TERM_CAP - 1, 1))
            k_max = min(k_cap, TERM_CAP - N)
            wp = bits + int(2 * math.log2(N + k_cap)) + 40
            res, retry = _abel_sum(coeff, mode, x, odd_multiples, N, k_max,
                                   wp, wp + int(table_guard), tol)
            if res.converged or not retry or k_max < k_cap:
                return res
            N *= 2


def _fixed(f, shift: int) -> int:
    """floor(f 2^shift) for a finite f: off by less than 1."""
    raw = (f if type(f) is mpf else mpf(f))._mpf_
    if not raw[1] and raw[2]:  # inf and nan have a zero mantissa
        raise ValueError(f"coefficient {f} is not finite")
    return to_fixed(raw, shift)


def _turn(j: int, x, prec: int) -> tuple[int, int]:
    """(cos j pi x, sin j pi x) as integers at 2^-prec, each off by less
    than 1 + 2^-18 units: j x and the trig functions carry 20 + bitlen(j)
    more bits."""
    with mp.workprec(prec + 20 + j.bit_length()):
        c, s = mpf_cos_sin_pi((j * x)._mpf_, mp.prec)
    return to_fixed(c, prec), to_fixed(s, prec)


def _abel_sum(coeff, mode, x, odd, N, k_max, head_wp, wp, tol):
    """One Euler-Abel evaluation with head length N and at most k_max
    difference orders; returns the SeriesResult and whether a longer head
    could do better.

    Only the caller's coefficients are mpf, the head's at head_wp bits and
    the tail's at wp.  Both sums run on integer fixed point and meet in mpf
    once:

    * Head.  With P = head_wp + bitlen(N) + 8, each coefficient is truncated
      once to a multiple of u = 2^(e - P), 2^e bounding the first nonzero
      one (larger ones later only take more bits).  The phase
      e^((2n + odd) pi i x) is a pair of integers at 2^-P, started from
      mpmath at the first nonzero coefficient and turned by e^(2 pi i x)
      once per term, each product truncated back to P bits.  The products
      sum exactly into one integer.  A start or e^(2 pi i x) is off by less
      than 1.5 units of 2^-P, a turn by that and its truncation (the
      corollary of :mod:`stieltjes.fixed`), so the n-th phase drifts by
      less than 3n + 1.5 <= 4n units.  The head is then off
      by at most N u (1 + 4N 2^-P) for the truncations, 4N 2^-P sum |f_n|
      for the drift and 16 2^-head_wp sum |f_n| for the coefficients' own
      rounding (a few ulps, assumed of coeff).
    * Tail.  f(N), ..., f(N + K) are truncated to multiples of
      v = 2^(e - wp), 2^e bounding f(N), so the rows Delta^j f(N + k - j)
      are exact integer differences and the sign checks on them exact.  An
      entry is off by at most v + 8 2^-wp |f|, its own rounding again
      assumed a few ulps, and Delta^k by 2^k times that; term k divides
      that by |1 - z|^(k+1).  Term k is Delta^k f(N) times Re|Im g_k,
      g_k = i^(k+1) e^(i pi (2N + odd + k - 1) x) / |1 - z|^(k+1), which
      is a complex integer G at 2^-Q, Q = wp + k_max + 4, multiplied by
      c = i e^(i pi x) / |1 - z| per order and truncated; R, |g_k| at 2^-Q,
      is multiplied by 1/|1 - z| alike.  The start and c are off by less
      than 6.5 2^-Q of their moduli, a truncation by 1.5 units against
      |g_(k+1)| 2^Q >= 2^(Q-k-2) (as |1 - z| <= 2), so G and R stay within
      2^-Q (6.5 (k + 1) + 6 2^k) < 2^-wp of |g_k|, and the terms and their
      moduli within 2^-wp of theirs.  Terms, moduli and the stop test run
      on integers at 2^-Q v.  With the conversions to mpf and the bound
      taken from a computed modulus, that is at most 3 2^-wp sum |term_k|.
    """
    cos = mode == "cos"
    P = head_wp + N.bit_length() + 8
    acc = mag = 0  # sum F_n Re|Im(phase_n) at u 2^-P; sum |F_n| at u
    shift = None  # -log2 u, from the first nonzero coefficient
    with mp.workprec(head_wp):
        for n in range(1, N):
            f = coeff(n)
            if shift is None:
                if not f:
                    continue
                shift = P - mp.mag(f)
                zr, zi = _turn(2 * n + odd, x, P)
                wr, wi = _turn(2, x, P)
            F = _fixed(f, shift)
            acc += F * zr if cos else F * zi
            mag += abs(F)
            zr, zi = (zr * wr - zi * wi) >> P, (zr * wi + zi * wr) >> P
    with mp.workprec(wp):
        if shift is None:
            shift = P
        u = mp.ldexp(1, -shift)
        head = mp.ldexp(mpf(acc), -shift - P)
        fmag = mag * u  # sum |f_n| to within N u
        head_err = (N * u * (1 + 4 * N * mp.ldexp(1, -P))
                    + (fmag + N * u) * (4 * N * mp.ldexp(1, -P)
                                        + 16 * mp.ldexp(1, -head_wp)))
        f = coeff(N)
        tshift = wp - (mp.mag(f) if f else 0)
        F = _fixed(f, tshift)
        # G = i^(k+1) e^(i pi (2N + odd + k - 1) x) / |1 - z|^(k+1) at 2^-Q,
        # times c = i e^(i pi x) / |1 - z| per order; R = |G|
        Q = max(wp + k_max + 4, -tshift)
        with mp.workprec(Q + 20):
            R = to_fixed((1 / (2 * mp.sinpi(x)))._mpf_, Q)
        co, si = _turn(2 * N + odd - 1, x, Q)
        gr, gi = (-si * R) >> Q, (co * R) >> Q
        co, si = _turn(1, x, Q)
        cr, ci = (-si * R) >> Q, (co * R) >> Q
        A = R
        # terms and their moduli in units of 2^-unit = v 2^-Q, and the stop
        # test 4 prev <= tol max(1, |head + tail|) in those units
        unit = tshift + Q
        d = unit - shift - P
        H = acc << d if d >= 0 else acc >> -d
        one = 1 << unit
        _, tm, te, _ = tol._mpf_
        lsh, rsh = max(2 - te, 0), max(te - 2, 0)
        tail = tmag = noise = 0  # noise: sum 2^k R_k at 2^-Q
        prev = None  # |term_(k-1)|
        edge = [F]  # edge[j] = Delta^j f(N + k - j); edge[-1] = Delta^k f(N)
        sign = -1 if F < 0 else 1
        big = abs(F)  # largest |F| in the difference table
        retry = True
        for k in range(k_max + 1):
            D = edge[-1]
            # Delta^j f(n) must have sign (-1)^j sign(f(N)); checked at
            # (j, n) = (0, N + k), (k - 1, N + 1) and (k, N)
            if (edge[0] * sign < 0 or D * sign * (-1) ** k < 0
                    or (k and edge[-2] * sign * (-1) ** k > 0)):
                prev = None  # not completely monotone from N on
                break
            size = abs(D) * R
            if k:
                # the remainder after terms < k is at most prev, as
                # Delta^k f keeps its sign
                if (prev << lsh) <= (tm * max(one, abs(H + tail))) << rsh:
                    retry = False
                    break
                if size > prev:
                    break  # the terms turned before the target
            if k == k_max:
                break
            tail += D * (gr if cos else gi)
            tmag += size
            noise += R << k
            prev = size
            gr, gi = (gr * cr - gi * ci) >> Q, (gr * ci + gi * cr) >> Q
            R = (R * A) >> Q
            F = _fixed(coeff(N + k + 1), tshift)
            big = max(big, abs(F))
            row = [F]
            for e in edge:
                row.append(row[-1] - e)
            edge = row
        bound = mpf("inf") if prev is None else mp.ldexp(mpf(prev), -unit)
        value = head + mp.ldexp(mpf(tail), -unit)
        tmag = mp.ldexp(mpf(tmag), -unit)
        v, eps = mp.ldexp(1, -tshift), mp.ldexp(1, -wp)
        rounding = (head_err
                    + v * (1 + 8 * eps * (big + 1)) * mp.ldexp(noise, -Q)
                    + eps * (3 * tmag + 4 * abs(head) + 2 * abs(value)))
        return SeriesResult(+value, bound + rounding, N - 1 + len(edge),
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
    end), plus 16 ulps of max(1, |value|) for the rounding.  It is an
    estimate, not a bound: two levels can agree because both missed a
    narrow feature of f.  It covers neither that nor the error of the
    integrand's own values.  ``terms_used`` counts the integrand
    evaluations.

    Its callers are the integrals with a branch point at an end and no
    complex path that :func:`stieltjes.gauss.integrate_analytic` could
    bound: Hasse's tail (``hurwitz._hasse_parts``), psi(x) - log x
    (``gammafuncs.digamma_log_integral``), Coffey's integral
    (``constants.coffey_difference_integral``) and Sondow's
    (``fourier._sondow_integral``).
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

    No route of the package uses it:
    :func:`stieltjes.gauss.sum_oscillatory` rotates its integrals onto the
    imaginary axis instead.  It stays only because the benchmark's tracer
    looks it up by name.
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


@lru_cache(maxsize=256)
def _em_bernoulli(K: int, W: int) -> tuple:
    """(beta_j, sh_j) for j = 1..K: beta_j = floor(2^sh_j B_2j / (2j)!) from
    mpmath's B_2j at W + 10 bits, with sh_j chosen so that 2^W < |beta_j|
    < 2^(W+2); so beta_j is within 2 units of 2^sh_j B_2j / (2j)!.  The
    B_2j are asked for in order, as mpmath then takes each from its own
    table at that precision: an entry depends on (j, W) alone, never on
    the calls made before."""
    row = []
    fac = 1
    for j in range(1, K + 1):
        fac *= (2 * j - 1) * (2 * j)
        sign, man, exp, bc = mpf_bernoulli(2 * j, W + 10)
        sh = W + fac.bit_length() - bc - exp + 1
        k = exp + sh  # beta = floor(+-man 2^k / fac)
        p = -man if sign else man
        row.append(((p << k) // fac if k >= 0 else p // (fac << -k), sh))
    return tuple(row)


def _em_log_power_sum(poly, s, x, cfg) -> SeriesResult:
    """sum_{k>=0} P(log(k+x)) (k+x)^-s by Euler-Maclaurin, for every real s.

    ``poly`` holds the integer coefficients of P (ascending, the last one
    nonzero).  With y = N + x and A = log y the sum is

        sum_{k<N} f(k) + y^(1-s) T(A) + y^-s [P(A)/2 - sum_{j<=K} b_j R_(2j-1)(A)]

    for f(t) = P(log(t+x)) (t+x)^-s and b_j = B_2j / (2j)!.  The tail
    y^(1-s) T(A) is int_N^inf f, continued analytically for s < 1: per
    monomial L^d, T = F_d with F_d = q (A^d + d F_(d-1)), q = 1/(s-1).  At
    s = 1 it is the finite part, T = -A^(d+1)/(d+1) and y^0 = 1, which
    makes the sum gamma_m(x) for P = L^m.  f^(r)(N) = y^-s R_r(A) with
    R_0 = P and R_(r+1) = (R_r' - (s+r) R_r) / y: folding y^-r into R_r
    keeps its coefficients near r!/N^r, where a separate y^-(s+r) would
    underflow.  N, K and the guard bits come from :func:`_em_plan` (target
    digits, s, deg P), never from x; below s = 1 :func:`_em_tail_guard`
    adds the tail's cancellation.  The error estimate is the remainder
    bound of :func:`_em_remainder_log` plus the rounding bound below.

    Rounding.  Everything runs on Python integers at W = bits + guard +
    bitlen(N + 2K) + 16 bits (:mod:`stieltjes.fixed`) and meets in one
    mpf, rounded to W bits (2^(1-W) |value|); u = 2^-W.

    * Weights.  y_k = k + x is exact.  w_k = y_k^-s is one integer power
      for integral s and exp(-s L_k) otherwise, L_k = log y_k, both at
      W + 8 bits; the log and the product s L_k carry log2(1 + |s| lam)
      more, lam >= max |log2 y_k|, so w_k is within u/4 relative.  L_k
      enters fixed point at 2^-W within 2 units.
    * Head.  P(L_k) by Horner, bounded a priori by the rule: its
      truncations and L_k's error leave it within 3 deg u P^(Lh_k), where
      P^(t) = sum |c_d| t^d and Lh_k = max(1, |L_k| + 2u) (Lh_k^(deg-1) <=
      P^(Lh_k) and P^' <= deg P^ there, as c_deg is an integer); P^(Lh_k)
      is bounded from above by a Horner of its own.  Each term P(L_k) w_k
      is an exact product, truncated once to a multiple of 2^e with
      N 2^e <= 2u max w_k.  So the head is within (3 deg + 3) u
      sum P^(Lh_k) w_k.
    * Tail, half and corrections, at y >= 4.  A, y, 1/y, s and q = 1/(s-1)
      are integers at 2^-W within 2, 1, 2, 1 and 1 units (q divided out of
      the exact s - 1, which keeps the bits :func:`_pole_rounded` gives s
      next to the pole), b_j is beta_j 2^-sh_j within 2^(1-sh_j)
      (:func:`_em_bernoulli`), and the rule carries the bounds of the
      powers of A, the F_d, each R_r (one for all its coefficients, from
      their largest) and the bracket's Horner at A.  Times y^-s and
      y^(1-s), each part is off by at most its bound plus u/2 of itself.
    """
    deg = len(poly) - 1
    tol = cfg.tol()
    bits = int(math.ceil(float(-mp.log(tol, 2))))
    monomial = sum(1 for c in poly if c != 0) == 1
    # s keeps the caller's bits: rounding s to W bits would cost s - 1 its
    # relative precision near the pole
    s = mp.convert(s)
    # the plan and the bounds run on float(s); an s beyond float range
    # (1e400 is exact and finite) would never find a plan
    sf = float(s)
    if not math.isfinite(sf):
        raise DomainError(f"s must lie within float range, got {s}")
    N, K, guard = _em_plan(bits, sf, deg, monomial)
    x = mpf(x)
    guard += _em_tail_guard(deg, s, N + x)
    W = bits + int(guard) + (N + 2 * K).bit_length() + 16
    C = [int(c) for c in poly]
    Cw = [c << W for c in C]
    ssign, sman, sexp, _ = sr = s._mpf_
    sman = -sman if ssign else sman
    n = sman << sexp if sexp >= 0 else None  # s, when integral
    xr = x._mpf_
    lam = max(abs(xr[2] + xr[3]), N.bit_length()) + 2
    WL = W + 8 + (lam if n is not None else int(abs(s) * lam) + 1).bit_length()

    def weight(y, L):  # y^-s as a raw mpf, within u/4 relative
        if n is not None:
            return mpf_pow_int(y, -n, W + 8)
        return mpf_exp(mpf_neg(mpf_mul(sr, L, WL)), W + 8)

    Ca = [abs(c) for c in Cw]
    terms = []  # P(L_k) and P^(Lh_k) at 2^-W, mantissa and exponent of w_k
    for k in range(N):
        y = mpf_add(from_int(k), xr)
        L = mpf_log(y, WL) if deg or n is None else None
        _, wm, we, _ = weight(y, L)
        p, pa = Cw[-1], Ca[-1]
        if deg:
            ell = to_fixed(L, W)
            lh = max(1 << W, abs(ell) + 2)
            for c, ca in zip(reversed(Cw[:-1]), reversed(Ca[:-1])):
                p = ((p * ell) >> W) + c
                pa = ((pa * lh) >> W) + ca + 1
        terms.append((p, pa, wm, we))
    e = max(we + wm.bit_length() for *_, wm, we in terms) - W - N.bit_length()
    head = mag = 0  # at 2^e
    for p, pa, wm, we in terms:
        d = we - e - W
        head += (p * wm) << d if d >= 0 else (p * wm) >> -d
        mag += ((pa * wm) << d if d >= 0 else (pa * wm) >> -d) + 1
    head_err = (3 * deg + 3) * mag

    y = mpf_add(from_int(N), xr)
    La = mpf_log(y, WL)
    A = to_fixed(La, W)
    _, wm, we, _ = weight(y, La)
    inv = (1 << 2 * W) // to_fixed(y, W)
    S = to_fixed(sr, W)
    # the bracket's coefficients Bc = P/2 - sum_j b_j R_(2j-1), each within EB
    # R_r's coefficients within E, the largest of them M; R[deg + 1] = 0
    R, E, M = Cw + [0], 0, max(map(abs, Cw))
    Bc, EB = [c >> 1 for c in Cw], 0
    row = _em_bernoulli(K, W)
    for r in range(2 * K - 1):
        Sr = S + (r << W)
        # U = R' - (s + r) R within Ue, |U_d| <= Um; then R = U / y
        Ue = deg * E + fixed.err(Sr, 1, M, E, W)
        Um = ((((deg + 1) << W) + abs(Sr)) * M >> W) + 1
        R = [(((d + 1) * R[d + 1] - ((Sr * R[d]) >> W)) * inv) >> W
             for d in range(deg + 1)] + [0]
        E = fixed.err(Um, Ue, inv, 2, W)
        M = max(map(abs, R))
        if not r % 2:
            beta, sh = row[r // 2]
            Bc = [b - ((beta * v) >> sh) for b, v in zip(Bc, R)]
            EB += fixed.err(beta, 2, M, E, sh)
    B, eB = fixed.horner(Bc, EB, A, 2, W)
    # the tail T(A) within eT, from the powers A^d within eA_d, d <= deg + 1
    powers = fixed.powers(A, 2, deg + 1, W)
    T = eT = F = eF = 0
    if n == 1:
        for d, c in enumerate(C):
            Ap, eA = powers[d + 1]
            T -= (c * Ap) // (d + 1)
            eT += abs(c) * eA + 1
    else:
        Q = ((1 << W) // (n - 1) if n is not None
             else (1 << (W - sexp)) // (sman - (1 << -sexp)))
        for d, c in enumerate(C):
            Ap, eA = powers[d]
            F, eF = fixed.mul(Q, 1, Ap + d * F, eA + d * eF, W)
            T += c * F
            eT += abs(c) * eF

    # value = 2^e head + 2^(we-W) wm B + 2^(te-W) tm T
    tm, te = (1, 0) if n == 1 else (y[1] * wm, y[2] + we)
    value = fixed.meet(((head, e), (wm * B, we - W), (tm * T, te - W)), W,
                       round_down)
    rounding = fixed.meet(((head_err, e - W),
                           (wm * (eB + (abs(B) >> (W + 1)) + 1), we - W),
                           (tm * (eT + (abs(T) >> (W + 1)) + 1), te - W),
                           (value[1], value[2] + 1 - W)), 60, round_up)
    # the remainder bound: (N+x)^(1-s) A^deg sum|c| times the exponential
    # of _em_remainder_log
    Af = to_float(La)
    log_prod = sum(math.log(abs(sf + i) + 1 / Af) for i in range(2 * K))
    remainder = mpf_exp(from_float(
        _em_remainder_log(Af, sf, K, deg, log_prod) + (1 - sf) * Af
        + deg * math.log(Af) + math.log(sum(map(abs, C)))), 60, round_up)
    err = mpf_add(remainder, rounding, 60, round_up)
    return SeriesResult(mp.make_mpf(value), mp.make_mpf(err), N + K, tol)


def _pole_rounded(s, cfg: PrecisionConfig) -> mpf:
    """s at the working precision plus about log2(1/|s - 1|) bits, so that
    s - 1 keeps the working relative precision next to the pole; s = 1
    itself is refused.  Only an exact s (a Fraction, or an mpf of any
    precision) needs the extra bits: the working precision holds ints and
    floats exactly."""
    extra = 0
    if isinstance(s, (Fraction, mpf)):
        d = s - 1 if isinstance(s, Fraction) else mp.fsub(s, 1, exact=True)
        m = mp.mag(d)  # |d| <= 2^m; -inf at s = 1, nan for a NaN s
        extra = -m if isinstance(m, int) and m < 0 else 0
    with cfg.workprec(40 + extra):
        s = as_real(s)
    if s == 1:
        raise PoleError("zeta(s,x) has a simple pole at s = 1")
    return s


def hurwitz_zeta_em(s, x=1, deriv: int = 0,
                    cfg: PrecisionConfig = DEFAULT_CFG) -> SeriesResult:
    """j-th s-derivative of zeta(s, x) by the Euler-Maclaurin engine.

    Valid for every real s != 1 (the analytic continuation below 1) and
    x > 0, at a cost that does not grow with x.  s is rounded by
    :func:`_pole_rounded`, so s - 1 keeps the working relative precision
    next to the pole.
    """
    s = _pole_rounded(s, cfg)
    with cfg.workprec(40):
        x = require_positive(x)
        if deriv < 0:
            raise DomainError("derivative order must be >= 0")
        # d^j/ds^j (k+x)^(-s) = (-log(k+x))^j (k+x)^(-s)
        poly = [0] * deriv + [(-1) ** deriv]
        return _em_log_power_sum(poly, s, x, cfg)
