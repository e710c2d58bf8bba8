from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stieltjes.core import DomainError
from stieltjes.constants import (adamchik_reflection, bell_series_gamma,
                                 briggs_gamma, coffey_difference_integral,
                                 coffey_integrand, digamma_hasse_series,
                                 em_gamma, gamma1_prime, gamma1_rational,
                                 hasse_gamma, landau_gamma1_functional,
                                 laurent_oracle, ramanujan_exp_sum,
                                 stieltjes_gamma)
from stieltjes.gammafuncs import digamma, log_gamma
from stieltjes.kernels import hurwitz_zeta_em

from conftest import assert_claim, assert_close
from reference_values import (GAMMA, GAMMA1, GAMMA1_HALF, GAMMA1_QUARTER,
                              GAMMA2, RAMANUJAN_S, ZETA2, ZETA_PRIME2)


class TestRoutes:
    def test_euler_constant_all_routes(self, cfg30):
        ref = mpf(GAMMA)
        for method, tol in (("hasse", "1e-25"), ("bell", "1e-25"),
                            ("laurent_oracle", "1e-25"), ("briggs", "1e-30")):
            res = stieltjes_gamma(0, 1, method, cfg30)
            assert abs(res.value - ref) < mpf(tol), method

    def test_gamma1_half_closed_form(self, cfg30):
        # gamma_1(1/2) = gamma_1 - log^2 2 - 2 gamma log 2
        v = stieltjes_gamma(1, mpf(1) / 2, "hasse", cfg30).value
        assert_close(v, mpf(GAMMA1_HALF), mpf(10) ** -25, "gamma_1(1/2)")
        closed = (mpf(GAMMA1) - mp.log(2) ** 2
                  - 2 * mpf(GAMMA) * mp.log(2))
        assert_close(v, closed, mpf(10) ** -25, "closed form")

    def test_gamma0_is_minus_digamma(self, cfg30):
        x = mpf("0.3")
        assert_close(stieltjes_gamma(0, x, "hasse", cfg30).value,
                     -digamma(x, cfg30).value, mpf(10) ** -25,
                     "gamma_0 = -psi")

    def test_cross_method_grid(self, cfg20):
        # hasse, bell, laurent oracle pairwise on (m,x) grid
        for m in (0, 1, 2):
            for x in (mpf(1), mpf(1) / 2, mpf(3) / 2):
                vals = {}
                errs = {}
                for method in ("hasse", "bell", "laurent_oracle"):
                    r = stieltjes_gamma(m, x, method, cfg20)
                    vals[method], errs[method] = r.value, r.err_estimate
                for a in vals:
                    for b in vals:
                        if a < b:
                            bound = 3 * (errs[a] + errs[b]) + mpf(10) ** -16
                            assert abs(vals[a] - vals[b]) < bound, (m, x, a, b)

    def test_briggs_where_defined(self, cfg20, cfg40):
        for m, x in ((0, mpf(1)), (0, mpf(2)), (1, mpf(1)), (1, mpf(3) / 2)):
            r = stieltjes_gamma(m, x, "briggs", cfg20)
            ref = laurent_oracle(m, x, cfg40).value
            assert r.converged, (m, x)
            assert abs(r.value - ref) < mpf(10) ** -20 * max(1, abs(ref)), (
                m, x)

    def test_briggs_rejects_m2(self, cfg20):
        with pytest.raises(DomainError):
            briggs_gamma(2, 1, cfg=cfg20)

    @pytest.mark.parametrize("m", [0, 2])
    def test_bell_claim_covers_its_terms_errors(self, m, cfg20):
        # the accelerated sum inherits the error of every EM zeta value in
        # its terms; at m = 0 they add up to 7.5e-29
        assert_claim(bell_series_gamma(m, 1, cfg20), lambda: mp.stieltjes(m),
                     20)

    def test_bell_small_x_shift(self, cfg20):
        v = bell_series_gamma(1, mpf(1) / 2, cfg20).value
        assert_close(v, mpf(GAMMA1_HALF), mpf(10) ** -15, "bell shifted")

    def test_gamma2(self, cfg30):
        v = stieltjes_gamma(2, 1, "hasse", cfg30).value
        assert_close(v, mpf(GAMMA2), mpf(10) ** -25, "gamma_2")

    def test_monotone_decay_region(self, cfg20):
        # gamma_1 decreasing for x >= e
        for x in (mp.e, mpf(4), mpf(10)):
            a = hasse_gamma(1, x, cfg20).value
            b = hasse_gamma(1, x + mpf(1) / 10, cfg20).value
            assert b < a


def _shift(m, x, cfg):
    # gamma_m(x) - gamma_m(x + 1) and log^m(x)/x
    return (em_gamma(m, x, cfg).value - em_gamma(m, x + 1, cfg).value,
            mp.log(x) ** m / x)


class TestShift:
    def test_m0(self, cfg30):
        lhs, rhs = _shift(0, mpf(2), cfg30)
        assert_close(lhs, rhs, mpf(10) ** -12, "gamma_0 shift")

    def test_m1_at_one(self, cfg30):
        # log(1) = 0: gamma_1(1) = gamma_1(2)
        a = hasse_gamma(1, 1, cfg30).value
        b = hasse_gamma(1, 2, cfg30).value
        assert abs(a - b) < mpf(10) ** -25

    def test_m1_at_half(self, cfg30):
        # the derived m >= 1 generalization; its meta says so in the suite
        lhs, rhs = _shift(1, mpf(1) / 2, cfg30)
        assert_close(lhs, rhs, mpf(10) ** -12, "gamma_1 shift")


class TestDigammaSeries:
    def test_values(self, cfg30):
        assert_close(digamma_hasse_series(1, cfg30).value, -mpf(GAMMA),
                     mpf(10) ** -25, "psi(1)")
        assert_close(digamma_hasse_series(2, cfg30).value, 1 - mpf(GAMMA),
                     mpf(10) ** -25, "psi(2)")
        assert_close(digamma_hasse_series(mpf(1) / 2, cfg30).value,
                     -mpf(GAMMA) - 2 * mp.log(2), mpf(10) ** -25, "psi(1/2)")


def _coffey_sum(n, x):
    # sum_k C(n,k)(-1)^k log(k+x)
    return mp.fsum((-1) ** k * mp.binomial(n, k) * mp.log(k + x)
                   for k in range(n + 1))


class TestCoffeyIntegral:
    def test_n1_x1(self, cfg20):
        assert_close(coffey_difference_integral(1, 1, cfg20).value,
                     -mp.log(2), mpf(10) ** -10, "-log 2")
        assert_close(_coffey_sum(1, 1), -mp.log(2), mpf(10) ** -18, "-log 2")

    def test_n2_x1(self, cfg20):
        assert_close(coffey_difference_integral(2, 1, cfg20).value,
                     mp.log(mpf(3) / 4), mpf(10) ** -10, "log(3/4)")

    def test_n1_x2(self, cfg20):
        assert_close(coffey_difference_integral(1, 2, cfg20).value,
                     mp.log(2) - mp.log(3), mpf(10) ** -10, "log(2/3)")

    @pytest.mark.parametrize("n,x", [(1, 1), (2, 1), (1, 2), (2, mpf(1) / 3)])
    def test_integrand_negative(self, n, x):
        f = coffey_integrand(n, x)
        assert all(f(mpf(u) / 10) < 0 for u in range(1, 10))

    @pytest.mark.parametrize("q", [3, 10])
    @pytest.mark.parametrize("n", [1, 2])
    def test_quadrature_meets_the_request_below_one(self, n, q, cfg20):
        # u^(x-1) is singular at u = 0 for x < 1; in v = u^x it is gone
        x = mpf(1) / q
        assert_claim(coffey_difference_integral(n, x, cfg20),
                     lambda: _coffey_sum(n, x), 20)


class TestGamma1Prime:
    def test_negative_beyond_e(self, cfg20):
        for x in (mp.e, mpf(4), mpf(10)):
            assert gamma1_prime(x, cfg20).value < 0

    def test_matches_finite_difference(self, cfg40):
        x = mpf(5)
        h = mpf(10) ** -6
        fd = (hasse_gamma(1, x + h, cfg40).value
              - hasse_gamma(1, x - h, cfg40).value) / (2 * h)
        assert abs(fd - gamma1_prime(x, cfg40).value) < mpf(10) ** -6

    def test_at_one(self, cfg30):
        assert_close(gamma1_prime(1, cfg30).value,
                     mpf(ZETA_PRIME2) + mpf(ZETA2), mpf(10) ** -27,
                     "zeta'(2)+zeta(2)")


class TestRationalClosedForms:
    def test_quarter(self, cfg30):
        v = gamma1_rational(Fraction(1, 4), cfg30)
        assert_close(v, mpf(GAMMA1_QUARTER), mpf(10) ** -20, "gamma_1(1/4)")

    def test_quarter_explicit_display(self, cfg30):
        # the explicit 1/4 display in log Gamma(1/4)
        g, g1 = mpf(GAMMA), mpf(GAMMA1)
        lg14 = log_gamma(mpf(1) / 4, cfg30).value
        display = ((2 * g1 - 7 * mp.log(2) ** 2 - 6 * g * mp.log(2)) / 2
                   - mp.pi / 2 * (g + 4 * mp.log(2) + 3 * mp.log(mp.pi)
                                  - 4 * lg14))
        assert_close(display, mpf(GAMMA1_QUARTER), mpf(10) ** -25,
                     "1/4 display")

    def test_half(self, cfg30):
        v = gamma1_rational(Fraction(1, 2), cfg30)
        assert_close(v, mpf(GAMMA1_HALF), mpf(10) ** -20, "gamma_1(1/2)")

    def test_fifth_vs_series(self, cfg20):
        v = gamma1_rational(Fraction(1, 5), cfg20)
        ref = hasse_gamma(1, mpf(1) / 5, cfg20).value
        assert abs(v - ref) < mpf(10) ** -8

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            gamma1_rational(Fraction(3, 2), cfg20)


def _g1_reflection(r, cfg):
    # gamma_1(1 - r) - gamma_1(r) by the default route
    return em_gamma(1, 1 - r, cfg).value - em_gamma(1, r, cfg).value


class TestAdamchik:
    def test_half_trivial(self, cfg20):
        closed = adamchik_reflection(Fraction(1, 2), cfg20)
        assert abs(closed) < mpf(10) ** -18  # cot term and sine sum vanish
        assert abs(_g1_reflection(mpf(1) / 2, cfg20)) < mpf(10) ** -18

    def test_quarter_closed_form(self, cfg30):
        closed = adamchik_reflection(Fraction(1, 4), cfg30)
        assert_close(closed, _g1_reflection(mpf(1) / 4, cfg30),
                     mpf(10) ** -8, "reflection at 1/4")
        g = mpf(GAMMA)
        display = mp.pi * (g + 4 * mp.log(2) + 3 * mp.log(mp.pi)
                           - 4 * log_gamma(mpf(1) / 4, cfg30).value)
        assert_close(closed, display, mpf(10) ** -24, "1/4 reflection")

    def test_third(self, cfg20):
        assert_close(adamchik_reflection(Fraction(1, 3), cfg20),
                     _g1_reflection(mpf(1) / 3, cfg20), mpf(10) ** -8,
                     "reflection at 1/3")


def _landau_lhs(x, cfg):
    # gamma_1(x + 1/2) - gamma_1(1/2 - x)
    return (em_gamma(1, x + mpf(1) / 2, cfg).value
            - em_gamma(1, mpf(1) / 2 - x, cfg).value)


class TestLandauFunctional:
    def test_quarter_self_consistent(self, cfg20):
        x = mpf(1) / 4
        assert_close(_landau_lhs(x, cfg20), landau_gamma1_functional(x, cfg20),
                     mpf(10) ** -6, "x = 1/4")

    @pytest.mark.parametrize("x", ["1/6", "0.2"])
    def test_points(self, x, cfg20):
        x = mpf(1) / 6 if x == "1/6" else mpf(x)
        assert_close(_landau_lhs(x, cfg20), landau_gamma1_functional(x, cfg20),
                     mpf(10) ** -6, f"x = {x}")

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            landau_gamma1_functional(mpf("0.75"), cfg20)


class TestRamanujanSum:
    def test_direct_sum_value(self, cfg30):
        S = ramanujan_exp_sum(cfg30).value
        assert_close(S, mpf(RAMANUJAN_S), mpf(10) ** -25, "S")
        assert abs(S - mpf("0.001872")) < mpf(10) ** -6

    def test_reports(self, cfg30):
        S = ramanujan_exp_sum(cfg30).value
        g = mpf(GAMMA)
        lg14 = log_gamma(mpf(1) / 4, cfg30).value
        lg34 = log_gamma(mpf(3) / 4, cfg30).value
        # the gamma_1(3/4) - gamma_1(1/4) display and its reflection form
        display = mp.pi * (mp.pi / 3 + g + 4 * S)
        reflection = (mp.pi * (mp.log(8 * mp.pi) + g)
                      - 2 * mp.pi * (lg14 - lg34))
        assert_close(display, reflection, mpf(10) ** -10, "display")
        closed34 = mp.log(4 / mp.pi) / 4 + lg34 - mp.pi / 12
        assert_close(S, closed34, mpf(10) ** -10, "Gamma(3/4) variant")
        # the printed Gamma(1/4) variant misses by ~1.08
        closed14 = mp.log(4 / mp.pi) / 4 + lg14 - mp.pi / 12
        assert abs(abs(S - closed14) - mpf("1.0847")) < mpf(10) ** -3
