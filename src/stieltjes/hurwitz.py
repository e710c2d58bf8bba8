"""Hurwitz zeta and its s-derivatives by independent representations.

Routes:

* ``zeta_hasse`` -- the globally convergent binomial double series, summed as
  a head (n <= N, one dot product with exact rational weights, guard bits
  growing with n and, below s = 1, with the head's largest term) plus an
  analytic tail: under the Laplace representation of the inner
  differences the outer weights collapse into elementary generating
  functions, leaving one smooth integral over [0, inf) per derivative
  order and difference term, with one exponential per node shared by all
  of them.  Accurate to the configured digits for any real s != 1.  The
  integrand's x- and s-independent factors at the quadrature nodes are
  kept in process-wide tables (:func:`_node_table`, :func:`_tail_table`),
  at most ``_TAIL_TABLES`` of each, so later calls only look them up.
  Like the trigonometric kernel and the EM engine, the tail runs on the
  integer fixed point of :mod:`stieltjes.fixed` at the node precision,
  and each integrand returns one mpf (:func:`_hasse_parts`).
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
  ``gauss.sum_oscillatory``.

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
from mpmath.libmp import (fone, from_man_exp, mpf_abs, mpf_exp, mpf_log,
                          mpf_mul, mpf_neg, mpf_pow_int, mpf_sub, round_nearest,
                          round_up, to_fixed)

from .core import (DEFAULT_CFG, DomainError, PrecisionConfig, SeriesResult,
                   as_real, ball, combine, require_positive, shift_up)
from .kernels import (TS_GUARD_BITS, _pole_rounded,
                      hurwitz_zeta_em, integrate_adaptive, sum_majorized,
                      sum_trig_averaged)
from . import fixed, gammafuncs, routes

_HEAD_TERMS = 32
# how many node, tail, coefficient and head-weight tables the process keeps
# (least recently used go first); a node table holds up to ~1,500 nodes,
# 0.5-1 MB at 20-30 digits
_TAIL_TABLES = 16
# bits that V's integers carry beyond the node precision (_weighted_tail)
_V_GUARD = 24
# the fixed point of the tail's bound integrand, which needs few correct bits
_BOUND_BITS = 32
_LOG2E = 1549082004  # floor(2^30 log2 e)
# where the Srivastava-Choi route shifts x before its series: a shift step
# costs a power, a term an EM call and gains log2(x) bits
SHIFT_FLOOR = 64


def _bell_complete(xs) -> mpf:
    """Complete exponential Bell polynomial Y_r(x_1..x_r), r = len(xs), by
    the recurrence Y_{r+1} = sum_j C(r,j) Y_{r-j} x_{j+1}, Y_0 = 1, in
    O(r^2); intervals (``mpmath.iv``) stay intervals."""
    Y = [mpf(1)]
    for r in range(len(xs)):
        Y.append(sum(xs[j] * (math.comb(r, j) * Y[r - j])
                     for j in range(r + 1)))
    return Y[-1]


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
        box = [_bell_complete(u[:p]) for p in range(jmax + 1)]
        Y = [_bell_complete(mid[:p]) + sum(
            (u[i - 1] - mid[i - 1]) * (math.comb(p, i) * box[p - i])
            for i in range(1, p + 1)) for p in range(jmax + 1)]
        expu = iv.exp(-log_gamma)
        return [-(iv.mpf(alpha) * Y[p] + (p * Y[p - 1] if p else 0)) * expu
                for p in range(jmax + 1)]

    return combine(glue, *used, tol=cfg.tol())


def _poly_delta(i: int, r: int, x) -> mpf:
    """sum_v (-1)^v C(i,v) (x+v)^r -- alternating difference of y^r."""
    acc = mpf(0)
    for v in range(i + 1):
        c = math.comb(i, v)
        acc += (c if v % 2 == 0 else -c) * (x + v) ** r
    return acc


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _node_table(bits: int) -> dict:
    """t -> :func:`_node_entry` at the tail quadrature's nodes, for
    ``integrate_adaptive`` with nodes at ``bits``; filled by the calls that
    use it."""
    return {}


def _node_entry(t, W: int) -> tuple:
    """(w, ell) at a node t > 0, a raw mpf, from libmp: w = 1 - e^(-t) as a
    raw mpf within 2^-(W+28) relative, and ell = -log t as an integer
    within 2 of 2^W (-log t).

    The log runs at W + 8 + lam bits, |log t| < 2^lam, so it errs by less
    than 2^-(W+6) before the truncation; e^(-t) runs at W + 36 bits plus
    the 1 - mag(t) bits that 1 - e^(-t) cancels below t = 1.
    """
    mag = t[2] + t[3]  # 2^(mag-1) <= t < 2^mag
    lam = (abs(mag) + 1).bit_length()
    ell = -to_fixed(mpf_log(t, W + 8 + lam), W)
    u = mpf_exp(mpf_neg(t), W + 36 + max(0, 1 - mag))
    return mpf_sub(fone, u, W + 32), ell


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _tail_table(N: int, i: int, bits: int) -> dict:
    """t -> e^(-it) V_{i,N-i}(t) (:func:`_weighted_tail`) at the tail
    quadrature's nodes, for ``integrate_adaptive`` with nodes at ``bits``;
    filled by the calls that use it.

    V depends on neither x nor s, so every Hasse call with the same head
    length and node precision shares the table.
    """
    return {}


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _head_weights(N: int) -> tuple:
    """a_k = (-1)^k sum_{n=k}^N C(n,k)/(n+1) for k <= N, as exact
    fractions: sum_{n<=N} 1/(n+1) Delta_n[f](x) = sum_k a_k f(k+x), and
    sum_k |a_k| <= sum_n 2^n/(n+1) < 2^(N+1)."""
    return tuple((-1) ** k * sum(Fraction(math.comb(n, k), n + 1)
                                 for n in range(k, N + 1))
                 for k in range(N + 1))


@functools.lru_cache(maxsize=_TAIL_TABLES)
def _tail_coefficients(N: int, i: int, W: int) -> tuple:
    """What :func:`_weighted_tail` reads for (N, i) at node precision W,
    with R = N - i and c_q = C(q+i, i)/(q+i+1).

    ``span``: the series runs where w < 2^-span, span = max(4, ceil(log2 g)
    + 1) for g = (R+i+2)/(R+2), so that g w <= 1/2 there.  ``series``:
    floor(c_q 2^(W+24)) for R < q <= R + K, K the most terms the series
    takes.  ``partial``: floor(c_q 2^Pmax) for q <= R, Pmax the closed
    form's highest precision.  ``KQ``: the closed form's Horner error bound
    for the partial sum, 2R + 2 + 2 sum_q q c_q units.  ``guard``: the
    closed form's bits beyond its cancellation.
    """
    R = N - i
    lg = math.log2((R + i + 2) / (R + 2))
    span = max(4, math.ceil(lg) + 1)
    K = math.ceil((W + 8) / (span - lg)) + 1
    moment = sum(Fraction(q * math.comb(q + i, i), q + i + 1)
                 for q in range(R + 1))
    KQ = 2 * R + 2 + math.ceil(2 * moment)
    guard = KQ.bit_length() + 16
    top = W + (N + 2) * span + guard
    series = tuple((math.comb(q + i, i) << (W + _V_GUARD)) // (q + i + 1)
                   for q in range(R + 1, R + 1 + K))
    partial = tuple((math.comb(q + i, i) << top) // (q + i + 1)
                    for q in range(R + 1))
    return span, series, partial, KQ, guard


def _weighted_tail(i: int, R: int, t, w, W: int, coeffs) -> tuple:
    """e^(-it) V_{i,R}(t) as integers (m, e, err): the value is within
    err 2^e of m 2^e.

    V_{i,R}(t) = sum_{q>R} c_q w^q at w = 1 - e^(-t) = 1 - u, with
    c_q = C(q+i,i)/(q+i+1); t and w come as raw mpfs (:func:`_node_entry`),
    ``coeffs`` from :func:`_tail_coefficients`.  V grows like e^(it), so
    the table holds e^(-it) V = u^i V, which lies in (0, 1/i] for i > 0,
    and the integrand's exponential takes -x t in place of -(x+i) t.

    For w < 2^-span (w < 1/16 unless i/R is large) the direct series:
    u^i w^(R+1) S(w), S = sum_{k<K} c_(R+1+k) w^k by Horner on integers at
    2^-(W+24), K with (g w)^K <= 2^-(W+8).  Its error, in units of
    2^-(W+24): the coefficients' and shifts' truncations, 2 sum w^k < 3;
    w's error of 2 units times S' <= 4.1 g S (g w <= 1/2); the terms past
    K, below 2^-(W+7) S.  Each factor u = 1 - w (within 2 units) follows
    the rule of :mod:`stieltjes.fixed`; w^(R+1) from libmp's integer power
    is within 2^-(W+5) relative.

    Otherwise the closed form, V = w^-(i+1) [sum_{p=1}^i (-1)^(i-p) z^p/p
    + (-1)^i t] - sum_{q<=R} c_q w^q with z = e^t - 1 = w/u, so

        e^(-it) V = [sum_p (-1)^(i-p) w^p u^(i-p)/p + (-1)^i t u^i
                     - u^i w^(i+1) Q] / w^(i+1),    Q = sum_{q<=R} c_q w^q,

    every term bounded (t u^i <= 1/(e i) for i > 0).  The bracket cancels
    to about w^(R+i+2) c_(R+1) u^i, so it runs in fixed point at 2^-P, P =
    W + (R+i+2) (1 - mag w) + guard, mag w >= log2 w.  u = e^(-t) comes
    from libmp at P + 8 bits (0 when t > P), within 2 units, and w = 1 - u
    is exact from it.  Errors in units of 2^-P, by the rule and its
    corollary for values <= 1: x^n within 4n and w^p u^(i-p) within
    4i + 2, divided by p with one more; t u^i within (t + 1) 4i + 3; Q by
    Horner within KQ (:func:`_tail_coefficients`), and u^i w^(i+1) Q
    within u^i w^(i+1) KQ + (Q + KQ)(8i + 6) + 2.  The division by
    b = w^(i+1) (within eb = 4(i+1)) of the bracket D (within eD) errs by
    at most 2^P (|D| eb + b eD) / (b (b - eb)) + 1.
    """
    span, series, partial, KQ, guard = coeffs
    wmag = w[2] + w[3]  # 2^(wmag-1) <= w < 2^wmag
    if wmag <= -span:
        WS = W + _V_GUARD
        lg = math.log2((R + i + 2) / (R + 2))
        K = math.ceil((W + 8) / (-wmag - lg)) + 1
        wf = to_fixed(w, WS)
        s = series[K - 1]
        for c in reversed(series[:K - 1]):
            s = (s * wf >> WS) + c
        err = 6 + (9 * (R + i + 2) * s // (R + 2) >> WS) + (s >> (W + 7))
        uf = (1 << WS) - wf
        for _ in range(i):
            s, err = fixed.mul(s, err, uf, 2, WS)
        _, pm, pe, _ = mpf_pow_int(w, R + 1, W + 8)
        m = s * pm
        err = err * pm + ((s + err) * pm >> (W + 4)) + 1
        e = pe - WS
    else:
        N = R + i
        P = W + (N + 2) * (1 - wmag) + guard
        sh = (N + 2) * (span - 1 + wmag)  # from the partial sums' 2^-Pmax
        one = 1 << P
        tf = to_fixed(t, P)
        uf = 0
        if t[2] + t[3] <= P.bit_length():  # else t > P and e^-t < 2^-P
            uf = to_fixed(mpf_exp(mpf_neg(t), P + 8), P)
        wf = one - uf
        wp, up = [one], [one]
        for _ in range(i + 1):
            wp.append(wp[-1] * wf >> P)
        for _ in range(i):
            up.append(up[-1] * uf >> P)
        D = tf * up[i] >> P
        eD = ((tf + 1) * 4 * i >> P) + 3
        if i % 2:
            D = -D
        for p in range(1, i + 1):
            term = (wp[p] * up[i - p] >> P) // p
            D += -term if (i - p) % 2 else term
            eD += (4 * i + 2) // p + 2
        q = partial[R] >> sh
        for c in reversed(partial[:R]):
            q = (q * wf >> P) + (c >> sh)
        a = up[i] * wp[i + 1] >> P
        D -= a * q >> P
        eD += (a * KQ + (q + KQ) * (8 * i + 6) >> P) + 2
        b, eb = wp[i + 1], 4 * (i + 1)
        m = (D << P) // b
        err = ((abs(D) * eb + b * eD) << P) // (b * (b - eb)) + 2
        e = -P
    k = m.bit_length() - W - _V_GUARD
    if k > 0:
        m >>= k
        err = (err >> k) + 2
        e += k
    return m, e, err


def _scaled(coeffs, bits: int, up: bool = False) -> tuple:
    """(s, ints): the mpf ``coeffs`` as integers at 2^-s, s chosen so that
    the largest lies in [2^(bits-1), 2^bits); each floor(c 2^s), or with
    ``up`` floor(|c| 2^s) + 1 for c != 0."""
    raws = [c._mpf_ for c in coeffs]
    s = bits - max((r[2] + r[3] for r in raws if r[1]), default=0)
    if up:
        return s, [to_fixed(mpf_abs(r), s) + 1 if r[1] else 0 for r in raws]
    return s, [to_fixed(r, s) for r in raws]


class _Tail:
    """The tail integrands of one :func:`_hasse_parts` call, on Python
    integers at the node precision W.

    It fetches the V table and coefficients of each difference term once,
    so that r + 1 > ``_TAIL_TABLES`` terms do not make the LRU rebuild a
    table per derivative order, and keeps E(t) = e^((alpha+1) L - x t) at
    every node it visits, which every (j, i) integrand of the call reads.
    """

    def __init__(self, N: int, terms, W: int, x, alpha):
        self.N, self.W, self.terms = N, W, terms
        self.tails = {i: (_tail_table(N, i, W), _tail_coefficients(N, i, W))
                      for i in terms}
        self.nodes = _node_table(W)
        self.exps = {}
        self.xr = x._mpf_
        self.A = to_fixed(alpha._mpf_, W) + (1 << W)  # alpha + 1, within 1
        self.kappa = 2 * int(mp.ceil(abs(alpha + 1))) + 5

    def _at(self, t) -> list:
        """[w, ell, a, E] at the raw node t: :func:`_node_entry`, the
        exponent a = (alpha+1) L - x t as an integer at 2^-W, and E =
        mE 2^eE = e^a as (mE, eE), or None until :meth:`_exp` sets it.
        x t is exact before its truncation, so a is within 2|alpha+1| +
        |L| + 3 units, and libmp's exp at W + 8 bits leaves E within
        2^-W (2|alpha+1| + |L| + 4) relative."""
        hit = self.exps.get(t)
        if hit is None:
            W = self.W
            node = self.nodes.get(t)
            if node is None:
                node = self.nodes[t] = _node_entry(t, W)
            a = (self.A * node[1] >> W) - to_fixed(mpf_mul(self.xr, t), W)
            hit = self.exps[t] = [node[0], node[1], a, None]
        return hit

    def _exp(self, hit) -> tuple:
        if hit[3] is None:
            _, mE, eE, _ = mpf_exp(from_man_exp(hit[2], -self.W), self.W + 8)
            hit[3] = (mE, eE)
        return hit[3]

    def integrands(self, i: int, P, P_err) -> tuple:
        """(f, g) for difference term i and the weight sum P(L) =
        sum_d P[d] L^d, whose coefficients err by at most P_err[d].

        f(t) = e^(-it) V(t) E(t) P(L) as one mpf rounded to W bits, P(L)
        by Horner on integers; g(t) bounds |f(t) - V E P_true(L)| as
        :func:`_hasse_parts` derives, by Horners on integers at 2^-32
        rounded up, as one mpf rounded up.  Where |V E P| < 2^-2W by
        magnitudes alone (V tiny as t -> 0, E as t -> inf: most of the
        nodes), f is 0 without the exponential and g charges |V E P|.
        """
        table, coeffs = self.tails[i]
        R, W, at, exp = self.N - i, self.W, self._at, self._exp
        deg = len(P) - 1
        sP, Pc = _scaled(P, W)
        top, rest = Pc[-1], Pc[-2::-1]
        Wb = _BOUND_BITS
        sa, Pa = _scaled(P, Wb, up=True)
        se, Pe = _scaled(P_err, Wb, up=True)
        ma, Pa_rest, Pe_rest = max(Pa), Pa[-2::-1], Pe[-2::-1]
        kap = (self.kappa + 2 * deg) << Wb
        cdeg = 4 * (deg + 1) << Wb
        low = min(-se, -sa - W - Wb)
        d1, d2, d3 = -se - low, -sa - low, -sa - W - Wb - low
        # log2 P^(Lam) < log2 max|P_d| + log2(deg + 1) + deg log2 Lam
        pbits = W - sP + (deg + 1).bit_length()

        def tail(t, w):
            v = table.get(t)
            if v is None:
                v = table[t] = _weighted_tail(i, R, t, w, W, coeffs)
            return v

        def negligible(ell, a, mV, eV, err):
            """|V E P| < 2^-2W at the node: |V| < 2^(eV + bitlen), e^a <
            2^(floor(a log2 e) + 3) whatever a's error, Lam < |L| + 3."""
            return (eV + (abs(mV) + err).bit_length() + 3
                    + (a * _LOG2E >> W + 30) + pbits
                    + deg * ((abs(ell) >> W) + 3).bit_length() < -2 * W)

        def f(t):
            t = t._mpf_
            hit = at(t)
            w, ell, a, _ = hit
            mV, eV, err = tail(t, w)
            if negligible(ell, a, mV, eV, err):
                return mp.zero
            mE, eE = exp(hit)
            p = top
            for c in rest:
                p = (p * ell >> W) + c
            return mp.make_mpf(from_man_exp(mV * mE * p, eV + eE - sP, W,
                                            round_nearest))

        def g(t):
            t = t._mpf_
            hit = at(t)
            w, ell, a, _ = hit
            mV, eV, err = tail(t, w)
            mE, eE = exp(hit)
            lam = (abs(ell) + 2 >> W - Wb) + 1  # |L| at 2^-Wb, up
            Lam = max(1 << Wb, lam + 1)  # max(1, |L| + 2^(1-W))
            pe, pa, pm = Pe[-1], Pa[-1], ma
            for c in Pe_rest:  # -(-a >> b) = ceil(a 2^-b)
                pe = -(-pe * lam >> Wb) + c
            for c in Pa_rest:
                pa = -(-pa * Lam >> Wb) + c
            for _ in range(deg):
                pm = -(-pm * Lam >> Wb)
            v = abs(mV)
            # where f is 0, all of |V E P| is its error
            ev = err + v if negligible(ell, a, mV, eV, err) else err
            total = (((v + err) * pe << d1) + (ev * pa << d2)
                     + (v * ((kap + Lam) * pa + cdeg * pm) << d3))
            return mp.make_mpf(from_man_exp(total * mE, low + eV + eE, 53,
                                            round_up))
        return f, g


def _hasse_parts(js, c, x, cfg: PrecisionConfig):
    """A_j = sum_{n>=0} 1/(n+1) * d^j/dc^j Delta_n[y^c](x) for each j in js.

    Delta_n[f](x) := sum_k (-1)^k C(n,k) f(k+x).  Returns {j: result}, each
    result claiming the same err and counting the same work as its terms:
    the head's N + 1 terms and every evaluation of a tail integrand, value
    and bound, over every j.

    The head, n <= N, is sum_k a_k f(k+x) with the exact weights of
    :func:`_head_weights`; err adds its rounding, Sum_k |a_k| |f(k+x)| <=
    2^(N+1) max |f| times the ulps of f, so it runs N + 64 bits past the
    request, and c log2(N + x) more for max |f| = (N + x)^c when c > 0.
    The tail, n > N, writes y^c = y^r y^alpha (alpha = c - r <= 0) with
    y^alpha in its Laplace form; it is the sum over i <= r of phi_i =
    Delta_i[y^r](x) times

        int_0^inf e^(-it) V_{i,N-i}(t) exp((alpha+1) L - x t)
                  sum_p C(j,p) L^(j-p) B_p dt,      L = -log t,

    B_p the 1/Gamma derivatives of :func:`_recip_gamma_derivs`: one
    exponential per node, shared by every (j, i), the weight sum one Horner
    pass in L.  Each integral runs once over [0, inf) on
    ``kernels.integrate_adaptive``, or over (0, t*) and (t*, inf) when the
    integrand's peak t* lies past 2 (large s), and stops at the request.
    err adds, over every j, the quadrature's estimate and an integral of
    the integrand's bound g (:class:`_Tail`).  The bound's integral runs at
    a looser tolerance on the same digits, so on the first levels of the
    same nodes.

    Rounding.  The integrand runs on Python integers at W = node bits,
    bounded a priori by the rule of :mod:`stieltjes.fixed`.  With v =
    e^(-it) V within eV (:func:`_weighted_tail`), E within 2^-W (2|alpha+1|
    + |L| + 4) E (:meth:`_Tail._at`) and ell within 2 of 2^W L, Horner on
    floor(P_d 2^sP), max |P_d| >= 2^(W-sP-1), leaves P(L) within 2^-sP
    2(deg+1) Lam^deg for its truncations plus 2^(1-W) deg P^(Lam) for
    ell's error (P^' <= deg P^ for Lam >= 1), P^(y) = sum |P_d| y^d and
    Lam = max(1, |L| + 2^(1-W)); the product rounds once to W bits.  So

        g(t) = E [(|v| + eV) P_err(|L|) + eV P^(Lam)
                  + |v| 2^-W ((2|alpha+1| + 5 + 2 deg + Lam) P^(Lam)
                              + 4 (deg+1) max|P_d| Lam^deg)],

    where P_err bounds the B_p's errors.  Where f is 0 by magnitudes alone
    (:meth:`_Tail.integrands`), eV in the middle term becomes eV + |v|.
    The terms left out are second order in 2^-W; err takes the bound's
    integral twice for them.  No term grows with x t: x t is exact before
    its one truncation.

    The phi_i multiply the tail's errors by up to Sum |phi_i|, 4e14 at
    r = 15 and x = 9/10, so when that sum exceeds 1, B, both integrals and
    the nodes run its digits past the request; the results are still
    judged at the request.  The integrals read the node entries and
    e^(-it) V_{i,N-i}(t) from the shared tables for (N, i) and the node
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
    extra = N + 64 + max(0, int(mp.ceil(c * mp.log(N + x, 2))))
    with cfg.workprec(extra):
        eps = mpf(2) ** -mp.prec
        logs = [mp.log(k + x) for k in range(N + 1)]
        powc = [mp.exp(c * L) for L in logs]
        weights = [mpf(a.numerator) / a.denominator for a in _head_weights(N)]
        values = {}
        err_total = mpf(0)
        terms = N + 1
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
        tail = _Tail(N, [i for i in range(r + 1) if phis[i]],
                     tcfg.working_bits + TS_GUARD_BITS, x, alpha)
        loose = tcfg.replace(tolerance=tcfg.tol() * 4)

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
            # the weight sum in powers of L and its coefficients' errors:
            # L^d carries C(j, d) B_(j-d)
            P = [math.comb(j, d) * B[j - d].value for d in range(j + 1)]
            P_err = [math.comb(j, d) * B[j - d].err_estimate
                     for d in range(j + 1)]
            acc = mpf(0)
            for i in tail.terms:
                f, g = tail.integrands(i, P, P_err)
                for a, b in ranges(i):
                    val = integrate_adaptive(f, a, b, tcfg)
                    J = integrate_adaptive(g, a, b, loose)
                    acc += phis[i] * val.value
                    err_total += abs(phis[i]) * (val.err_estimate
                                                 + 2 * J.value
                                                 + J.err_estimate)
                    terms += val.terms_used + J.terms_used
            values[j] = values[j] + acc
        values = {j: +v for j, v in values.items()}
        err_total += 4 * eps * sum(abs(v) for v in values.values())
        return {j: SeriesResult(v, +err_total, terms, cfg.tol())
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
                math.comb(deriv, i) * math.factorial(i) / pole ** (i + 1)
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
    gauss.sum_oscillatory; x < 1 is shifted up by
    zeta(s, x) = x^-s + zeta(s, x+1).
    """
    from .gauss import sum_oscillatory
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
