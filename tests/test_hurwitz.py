import math
from fractions import Fraction

import pytest
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


class TestHasseTables:
    @pytest.mark.parametrize("i", [0, 2])
    def test_weighted_tail_to_a_few_ulps(self, i):
        # both sides of the switch at w = 1/16, against the series itself
        R = 32 - i
        for t in ("0.001", "0.06", "0.07", "0.5", "3"):
            t = mpf(t)
            with mp.workprec(200):
                w = -mp.expm1(-t)
                V = hurwitz._weighted_tail(i, R, t, w)
            with mp.workprec(600):
                w = -mp.expm1(-t)
                q = R + 1
                cw = mp.binomial(q + i, i) * w ** q  # C(q+i, i) w^q
                ref = term = cw / (q + i + 1)
                while term > mpf(2) ** -600 * ref:
                    cw *= w * (q + i + 1) / (q + 1)
                    q += 1
                    term = cw / (q + i + 1)
                    ref += term
                assert abs(V - ref) <= 2 ** -190 * ref, (i, t)

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
        calls = record_results(monkeypatch, hurwitz, "integrate_adaptive")
        hasse_gamma(0, mpf(7) / 4, cfg20)
        assert len(calls) == 2
        assert sum(res.terms_used for res in calls) <= 600

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
