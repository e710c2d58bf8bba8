import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.core import DomainError, PoleError, PrecisionConfig
from stieltjes import hurwitz, kernels
from stieltjes.constants import digamma_hasse_series, hasse_gamma
from stieltjes.gammafuncs import log_gamma
from stieltjes.hurwitz import (poisson_zeta, zeta, zeta_doubleprime0,
                               zeta_fourier, zeta_hasse, zeta_prime0,
                               zeta_srivastava_choi)
from stieltjes.kernels import hurwitz_zeta_em, sum_trig_averaged

from conftest import assert_claim, assert_close, record_results
from reference_values import ZETA2


class TestZetaHasse:
    def test_basel(self, cfg30):
        res = zeta_hasse(2, 1, 0, cfg30)
        assert_close(res.value, mpf(ZETA2), mpf(10) ** -27, "zeta(2)")

    def test_shift_identity(self, cfg30):
        # zeta(s,x) - zeta(s,1+x) = x^(-s)
        s, x = mpf(3), mpf("0.7")
        d = zeta_hasse(s, x, 0, cfg30).value - zeta_hasse(s, 1 + x, 0, cfg30).value
        assert_close(d, x ** -s, mpf(10) ** -26, "elementary shift")

    def test_pole_residue(self, cfg30):
        # (s-1) zeta(s,x) -> 1 probed near the pole
        x = mpf("0.4")
        for eps in (mpf(10) ** -6, -mpf(10) ** -6):
            v = (eps) * zeta_hasse(1 + eps, x, 0, cfg30).value
            assert abs(v - 1) < mpf(10) ** -5

    def test_pole_guard(self, cfg20):
        # only s = 1 itself is refused, however it is given
        for s in (1, 1.0, mpf(1), Fraction(1)):
            with pytest.raises(PoleError):
                zeta_hasse(s, 1, 0, cfg20)
            with pytest.raises(PoleError):
                zeta_srivastava_choi(s, 1, cfg20)

    def test_zero_values_exact(self, cfg30):
        # zeta(0,x) = 1/2 - x; zeta(-1,x) terminates exactly too
        for x in (mpf("0.3"), mpf(1), mpf("1.8")):
            assert_close(zeta_hasse(0, x, 0, cfg30).value, mpf(1) / 2 - x,
                         mpf(10) ** -28, "zeta(0,x)")

    @pytest.mark.parametrize("j", [1, 2])
    def test_derivatives_match_finite_differences(self, j, cfg30):
        # central differences of the j=0 route in s
        h = mpf(10) ** -5
        for s, x in ((mpf(2), mpf(1)), (mpf(-1) / 2, mpf("0.7"))):
            if j == 1:
                fd = (zeta_hasse(s + h, x, 0, cfg30).value
                      - zeta_hasse(s - h, x, 0, cfg30).value) / (2 * h)
            else:
                fd = (zeta_hasse(s + h, x, 0, cfg30).value
                      - 2 * zeta_hasse(s, x, 0, cfg30).value
                      + zeta_hasse(s - h, x, 0, cfg30).value) / h ** 2
            v = zeta_hasse(s, x, j, cfg30).value
            assert abs(fd - v) < mpf(10) ** -8

    def test_x_derivative_relation(self, cfg40):
        # d/dx zeta(s,x) = -s zeta(s+1,x) to O(h^2)
        h = mpf(10) ** -6
        for s, x in ((mpf(2), mpf(1)), (mpf(1) / 2, mpf("0.7")),
                     (mpf(-1) / 2, mpf("0.3"))):
            fd = (zeta_hasse(s, x + h, 0, cfg40).value
                  - zeta_hasse(s, x - h, 0, cfg40).value) / (2 * h)
            rhs = -s * zeta_hasse(s + 1, x, 0, cfg40).value
            assert abs(fd - rhs) < mpf(10) ** -9

    def test_laurent_consistency(self, cfg30):
        # zeta(1 +/- eps, x) - 1/(s-1) matches gamma_0(x) -/+ eps gamma_1(x)
        x = mpf("0.6")
        eps = mpf(10) ** -4
        g0 = hasse_gamma(0, x, cfg30).value
        g1 = hasse_gamma(1, x, cfg30).value
        for sgn in (1, -1):
            s = 1 + sgn * eps
            lhs = zeta_hasse(s, x, 0, cfg30).value - 1 / (s - 1)
            rhs = g0 - sgn * eps * g1
            assert abs(lhs - rhs) < 10 * eps ** 2


def _weighted_tail_reference(i, R, t, bits):
    """e^(-it) V_{i,R}(t) in mpf at ``bits``: the series sum_{q>R} c_q w^q
    while w < 1/2, where its terms fall by at least 2, and past that the
    closed form with the R + i + 2 bits it cancels on top."""
    with mp.workprec(bits):
        w = -mp.expm1(-t)
        if w < mpf(1) / 2:
            q = R + 1
            cw = mp.binomial(q + i, i) * w ** q  # C(q+i, i) w^q
            V = term = cw / (q + i + 1)
            while term > mpf(2) ** -bits * V:
                cw *= w * (q + i + 1) / (q + 1)
                q += 1
                term = cw / (q + i + 1)
                V += term
        else:
            with mp.workprec(bits + R + i + 2):
                z = mp.expm1(t)
                V = (((-1) ** i * t + mp.fsum((-1) ** (i - p) * z ** p / p
                                              for p in range(1, i + 1)))
                     / w ** (i + 1) - mp.fsum(
                         mp.binomial(q + i, i) / (q + i + 1) * w ** q
                         for q in range(R + 1)))
        return V * mp.exp(-i * t)


class TestHasseTables:
    @pytest.mark.parametrize("i", [0, 2])
    def test_weighted_tail_to_a_few_ulps(self, i):
        # both sides of the switch at w = 1/16, against 600-bit mpf; the
        # table holds e^(-it) V at W bits
        N, W = 32, 200
        coeffs = hurwitz._tail_coefficients(N, i, W)
        for t in ("0.001", "0.06", "0.07", "0.5", "3"):
            t = mpf(t)
            w, _ = hurwitz._node_entry(t._mpf_, W)
            m, e, _ = hurwitz._weighted_tail(i, N - i, t._mpf_, w, W, coeffs)
            ref = _weighted_tail_reference(i, N - i, t, 600)
            with mp.workprec(600):
                assert abs(mp.ldexp(m, e) - ref) <= 2 ** -190 * ref, (i, t)

    @settings(max_examples=12, deadline=None)
    @given(t=st.floats(-4, 1.5).map(lambda e: 10 ** e)
           | st.floats(0.05, 0.08), i=st.sampled_from([0, 2, 15]),
           jmax=st.sampled_from([1, 3]), x=st.floats(-1, 2).map(
               lambda e: 10 ** e), alpha=st.floats(-3, 0))
    def test_integrand_within_its_charged_rounding(self, t, i, jmax, x,
                                                   alpha):
        # the fixed-point V and integrand against 300-bit mpf, on both
        # sides of w = 1/16 (t = 0.0645): each within the rounding that
        # the bound integrand charges at that node, and V within its own
        N, W = 32, PrecisionConfig(20).working_bits + kernels.TS_GUARD_BITS
        t, x, alpha = mpf(t), mpf(x), mpf(alpha)
        B = hurwitz._recip_gamma_derivs(alpha, jmax, PrecisionConfig(20))
        P = [math.comb(jmax, d) * B[jmax - d].value
             for d in range(jmax + 1)]
        f, g = hurwitz._Tail(N, [i], W, x, alpha).integrands(
            i, P, [mpf(0)] * len(P))
        value, charged = f(t), g(t)
        m, e, err = hurwitz._tail_table(N, i, W)[t._mpf_]
        V = _weighted_tail_reference(i, N - i, t, 300)
        with mp.workprec(300):
            L = -mp.log(t)
            ref = V * mp.exp((alpha + 1) * L - x * t) * mp.polyval(P[::-1], L)
            assert abs(mp.ldexp(m, e) - V) <= mp.ldexp(err, e)
            assert abs(value - ref) <= charged

    @pytest.mark.parametrize("N", [8, 32, 40])
    def test_head_weights_reproduce_the_double_sum(self, N):
        # sum_n 1/(n+1) sum_k (-1)^k C(n,k) f_k, exactly, for two f
        weights = hurwitz._head_weights(N)
        for f in ([Fraction(1, k + 2) for k in range(N + 1)],
                  [Fraction(3) ** k for k in range(N + 1)]):
            double = sum(Fraction((-1) ** k * math.comb(n, k), n + 1) * f[k]
                         for n in range(N + 1) for k in range(n + 1))
            assert sum(a * v for a, v in zip(weights, f)) == double
        assert sum(abs(a) for a in weights) <= 2 ** (N + 1)

    def test_tail_is_one_integral(self, monkeypatch, cfg20):
        # one value and one bound integral over [0, inf); the two ranges
        # [0, 1] and [1, inf) took 4 integrals and 772 evaluations
        # the result counts the head's terms and every tail evaluation
        calls = record_results(monkeypatch, hurwitz, "integrate_adaptive")
        res = hasse_gamma(0, mpf(7) / 4, cfg20)
        assert len(calls) == 2
        evaluations = sum(r.terms_used for r in calls)
        assert evaluations <= 600
        assert res.terms_used == hurwitz._HEAD_TERMS + 1 + evaluations

    def test_each_tail_table_is_fetched_once_per_call(self, cfg20):
        # r + 1 = 19 difference terms against an LRU of 16: fetched once
        # per (j, i), a deriv-1 call rebuilt all 19 tables for each order
        assert hurwitz._TAIL_TABLES < 19
        hurwitz._tail_table.cache_clear()
        zeta_hasse(mpf(-33) / 2, mpf(9) / 10, 1, cfg20)
        info = hurwitz._tail_table.cache_info()
        assert (info.misses, info.hits) == (19, 0)

    def test_warm_calls_equal_cold_calls(self, cfg20, cfg30):
        # the tail's shared tables change no bit of any result, whatever
        # ran between, and stay within their bound
        tables = (hurwitz._tail_table, hurwitz._node_table)

        def counts():
            sizes = [t.cache_info().currsize for t in tables]
            assert max(sizes) <= hurwitz._TAIL_TABLES
            return sizes

        def bits(res):
            return res.value._mpf_, res.err_estimate._mpf_, res.terms_used

        calls = [lambda: hasse_gamma(1, mpf(1) / 3, cfg20),
                 # c = 3/2, so r = 2: tables for i = 0, 1, 2, and
                 # sum |Delta_i[y^2](x)| > 1 raises its node precision
                 lambda: zeta_hasse(mpf(-1) / 2, mpf(3) / 10, 1, cfg20),
                 lambda: digamma_hasse_series(2, cfg20)]
        for t in tables:
            t.cache_clear()
        cold = []
        for f in calls:
            cold.append(bits(f()))
            counts()
        assert counts() == [4, 2]
        hasse_gamma(1, mpf(1) / 3, cfg30)
        assert counts() == [5, 3]  # another precision, its own tables
        hasse_gamma(1, mpf(7) / 10, cfg20)
        assert counts() == [5, 3]  # another x, the same tables
        for f, expected in zip(calls, cold):
            assert bits(f()) == expected
            assert counts() == [5, 3]


class TestZetaFourier:
    @pytest.mark.parametrize("s,x", [
        ("-0.5", "0.3"), ("-1", "0.7"), ("0.5", "0.25"),
    ])
    def test_matches_hasse(self, s, x, cfg20):
        s, x = mpf(s), mpf(x)
        lhs = zeta_fourier(s, x, cfg20).value
        rhs = zeta_hasse(s, x, 0, cfg20).value
        assert abs(lhs - rhs) < mpf(10) ** -8

    def test_riemann_at_x1_reports_the_engine_error(self, cfg30):
        # reduces to the functional equation; zeta(-1) = -1/12
        res = zeta_fourier(-1, 1, cfg30)
        assert_claim(res, lambda: mpf(-1) / 12, 30)
        assert res.err_estimate < mpf(10) ** -30

    @pytest.mark.parametrize("s,x,digits", [
        ("0.5", "0.25", 30), ("-0.5", "0.3", 20), ("-10", "0.7", 50),
        ("0.95", "0.05", 20), ("-2.5", "1", 30),
    ])
    def test_converges_to_the_request(self, s, x, digits):
        # the sums, Gamma(1 - s) and the prefactors all count in the claim
        s, x = mpf(s), mpf(x)
        res = zeta_fourier(s, x, PrecisionConfig(digits=digits))
        assert_claim(res, lambda: mp.zeta(s, x), digits)

    def test_term_budget_short_of_the_head_is_unconverged(self, monkeypatch):
        monkeypatch.setattr(kernels, "TERM_CAP", 20)
        cfg = PrecisionConfig(digits=30)
        res = zeta_fourier(mpf(1) / 2, mpf(1) / 4, cfg)
        assert not res.converged
        assert res.err_estimate > mpf(10) ** -30
        assert res.terms_used <= 40  # two sums of at most 20 terms

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            zeta_fourier(mpf(3) / 2, mpf(1) / 2, cfg20)
        with pytest.raises(DomainError):
            zeta_fourier(mpf(1) / 2, mpf(2), cfg20)
        with pytest.raises(DomainError):
            zeta_fourier(mpf(1) / 2, 1, cfg20)  # x=1 needs s < 0


class TestSpecialDerivativesAtZero:
    def test_prime0_at_one(self, cfg30):
        assert_close(zeta_prime0(1, "hasse", cfg30).value,
                     -mp.log(2 * mp.pi) / 2, mpf(10) ** -27, "zeta'(0)")

    def test_prime0_at_half(self, cfg30):
        assert_close(zeta_prime0(mpf(1) / 2, "hasse", cfg30).value,
                     -mp.log(2) / 2, mpf(10) ** -27, "zeta'(0,1/2)")

    def test_prime0_routes_agree(self, cfg20):
        x = mpf("0.2")
        a = zeta_prime0(x, "hasse", cfg20).value
        b = zeta_prime0(x, "fourier", cfg20).value
        assert abs(a - b) < mpf(10) ** -6

    def test_doubleprime0_routes_agree(self, cfg20):
        x = mpf(1) / 4
        a = zeta_doubleprime0(x, "hasse", cfg20).value
        b = zeta_doubleprime0(x, "fourier", cfg20).value
        assert abs(a - b) < mpf(10) ** -4

    @pytest.mark.parametrize("x", ["0.25", "0.05", "0.93"])
    def test_fourier_routes_meet_the_request(self, x, cfg30):
        x = mpf(x)
        for route, deriv in ((zeta_prime0, 1), (zeta_doubleprime0, 2)):
            res = route(x, "fourier", cfg30)
            assert_claim(res, lambda: mp.zeta(0, x, deriv), 30)
            assert res.err_estimate <= mpf(10) ** -30

    @pytest.mark.parametrize("digits", [20, 50])
    def test_doubleprime0_fourier_route_is_two_sums(self, digits,
                                                    monkeypatch):
        calls = record_results(monkeypatch, hurwitz, "sum_trig_averaged")
        cfg = PrecisionConfig(digits=digits)
        for x in (mpf("0.03"), mpf("0.37"), mpf("0.9")):
            assert_claim(zeta_doubleprime0(x, "fourier", cfg),
                         lambda: mp.zeta(0, x, 2), digits)
        assert len(calls) == 6

    def test_doubleprime0_sum_form(self, cfg20):
        # zeta''(0,x) + zeta''(0,1-x) = 2 sum (log(2 pi n)+gamma)/n cos(2 pi n x)
        x = mpf("0.3")
        lhs = (zeta_doubleprime0(x, "hasse", cfg20).value
               + zeta_doubleprime0(1 - x, "hasse", cfg20).value)
        rhs = 2 * sum_trig_averaged(
            lambda n: (mp.log(2 * mp.pi * n) + mp.euler) / n, "cos", x,
            cfg20).value
        assert abs(lhs - rhs) < mpf(10) ** -8

    def test_doubleprime0_difference_form(self, cfg20):
        x = mpf("0.3")
        lhs = (zeta_doubleprime0(x, "hasse", cfg20).value
               - zeta_doubleprime0(1 - x, "hasse", cfg20).value)
        g = mp.euler

        def coeff(n):
            L = mp.log(2 * mp.pi * n)
            return (2 * L ** 2 + 4 * g * L
                    + 2 * g ** 2 - mp.pi ** 2 / 6) / (mp.pi * n)

        rhs = sum_trig_averaged(coeff, "sin", x, cfg20).value
        assert abs(lhs - rhs) < mpf(10) ** -8

    def test_lerch_identity_links_log_gamma(self, cfg30):
        x = mpf("0.37")
        lhs = zeta_prime0(x, "hasse", cfg30).value + mp.log(2 * mp.pi) / 2
        assert_close(lhs, log_gamma(x, cfg30).value, mpf(10) ** -24,
                     "Lerch link")


class TestAlternativeRepresentations:
    @pytest.mark.parametrize("s,x,tol", [
        (2, 1, "1e-10"), ("0.5", 2, "1e-10"), (3, "1.5", "1e-10"),
    ])
    def test_srivastava_choi(self, s, x, tol, cfg20):
        lhs = zeta_srivastava_choi(mpf(s), mpf(x), cfg20).value
        rhs = zeta_hasse(mpf(s), mpf(x), 0, cfg20).value
        assert abs(lhs - rhs) < mpf(tol)

    def test_srivastava_choi_claim_covers_its_terms_errors(self, cfg20):
        # the terms' EM zeta values carry ~2e-28 between them
        assert_claim(zeta_srivastava_choi(2, 1, cfg20), lambda: mp.zeta(2), 20)

    def test_srivastava_choi_claim_covers_zeta3(self, cfg20):
        # the Euler-accelerated sum claimed 1.7e-23 here while 1.4e-22 off
        assert_claim(zeta_srivastava_choi(3, 1, cfg20), lambda: mp.zeta(3), 20)

    def test_srivastava_choi_shifts_small_x(self, cfg20):
        lhs = zeta_srivastava_choi(2, mpf("0.4"), cfg20).value
        rhs = zeta_hasse(2, mpf("0.4"), 0, cfg20).value
        assert abs(lhs - rhs) < mpf(10) ** -10

    def test_poisson_basel(self, cfg20):
        res = poisson_zeta(2, 1, cfg20)
        assert abs(res.value - mpf(ZETA2)) < mpf(10) ** -5

    def test_poisson_half(self, cfg20):
        res = poisson_zeta(3, mpf(1) / 2, cfg20)
        rhs = zeta_hasse(3, mpf(1) / 2, 0, cfg20).value
        assert abs(res.value - rhs) < mpf(10) ** -5

    def test_poisson_tail_runs_until_terms_turn(self, cfg20):
        # a fixed three-term tail stopped at 4e-7 here
        assert_claim(poisson_zeta(3, mpf(1) / 2, cfg20),
                     lambda: mp.zeta(3, mpf(1) / 2), 20)

    def test_poisson_large_x_dominated_by_elementary(self, cfg20):
        # oscillatory remainder fades as x grows
        s, x = mpf(2), mpf(20)
        exact = zeta_hasse(s, x, 0, cfg20).value
        elementary = x ** (-s) / 2 + x ** (1 - s) / (s - 1)
        assert abs(exact - elementary) < mpf(10) ** -4

    def test_dispatcher(self, cfg20):
        # auto is the EM engine on both sides of the pole
        res = zeta(2, 1, 0, "auto", cfg20)
        assert abs(res.value - mpf(ZETA2)) < mpf(10) ** -18
        s, x = mpf(-1) / 2, mpf("0.3")
        assert zeta(s, x, 0, "auto", cfg20) == hurwitz_zeta_em(s, x, 0, cfg20)
        assert abs(zeta(s, x, 0, "auto", cfg20).value
                   - zeta_hasse(s, x, 0, cfg20).value) < mpf(10) ** -18
