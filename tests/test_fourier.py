from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from stieltjes.core import DomainError, PrecisionConfig
from stieltjes.constants import hasse_gamma, gamma1_rational
from stieltjes.fourier import (deninger_f, gamma1_fourier,
                               kolbig_check, kummer_log_gamma,
                               landau_f_functional, lerch_transform,
                               series_316, series_325_family, sondow_gamma,
                               wallis_alternating)
from stieltjes.gammafuncs import digamma
from stieltjes.kernels import sum_alternating_accelerated

from conftest import assert_close
from reference_values import GAMMA, GAMMA1_HALF


class TestLerchTransform:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_constant_coefficients_sin(self, k, cfg20):
        # c_n == 1 collapses to the single surviving n=0 term: -sin(pi x)
        x = mpf(k) / 10
        res = lerch_transform(lambda n: mpf(1), "sin", x, cfg20)
        assert abs(res.value - (-mp.sinpi(x))) < mpf(10) ** -6

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_constant_coefficients_cos(self, k, cfg20):
        x = mpf(k) / 10
        res = lerch_transform(lambda n: mpf(1), "cos", x, cfg20)
        assert abs(res.value - (-mp.cospi(x))) < mpf(10) ** -6

    def test_log_coefficients_give_stieltjes_difference(self, cfg20):
        # d_n = log(2 pi n) + gamma: transform equals
        # -[gamma_1(1-x) - gamma_1(x)] sin(pi x)/pi
        x = mpf(1) / 3
        d_n = lambda n: mp.log(2 * mp.pi * n) + mp.euler
        res = lerch_transform(d_n, "cos", x, cfg20)
        diff = hasse_gamma(1, 1 - x, cfg20).value - hasse_gamma(1, x, cfg20).value
        rhs = -diff * mp.sinpi(x) / mp.pi
        assert abs(res.value - rhs) < mpf(10) ** -8


class TestKummer:
    def test_at_half_elementary(self, cfg20):
        # sine series vanishes termwise; elementary part is log Gamma(1/2)
        rep = kummer_log_gamma(mpf(1) / 2, cfg20)
        assert rep.passed
        assert_close(rep.rhs, mp.log(mp.pi) / 2, mpf(10) ** -18, "log G(1/2)")

    @pytest.mark.parametrize("x", ["0.25", "1/3"])
    def test_interior(self, x, cfg20):
        x = mpf(1) / 3 if x == "1/3" else mpf(x)
        rep = kummer_log_gamma(x, cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -5


class TestOddSineSeries:
    def test_reduces_to_wallis_at_half(self, cfg20):
        rep = series_316(mpf(1) / 2, cfg20)
        assert rep.passed
        # RHS at 1/2: -(psi(1/2) + gamma + log 2 pi); equals log(pi/2) shape
        wallis = wallis_alternating(cfg20)
        assert_close(wallis.value, mp.log(mp.pi / 2), mpf(10) ** -15,
                     "log(pi/2)")

    def test_wallis_claim_covers_at_50_digits(self):
        res = wallis_alternating(PrecisionConfig(digits=50))
        assert res.converged
        assert abs(res.value - mp.log(mp.pi / 2)) <= res.err_estimate

    @pytest.mark.parametrize("x", ["0.25", "0.75"])
    def test_points(self, x, cfg20):
        rep = series_316(mpf(x), cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -5


class TestDeninger:
    def test_alternating_value_at_half(self, cfg20):
        # LHS at 1/2 is sum (-1)^n log n/n = gamma log 2 - log^2 2/2;
        # Euler-accelerated direct summation is the oracle here
        direct = sum_alternating_accelerated(
            lambda n: mpf(-1) ** n * mp.log(n) / n if n > 1 else mpf(0),
            cfg20)
        closed = mp.euler * mp.log(2) - mp.log(2) ** 2 / 2
        assert_close(direct.value, closed, mpf(10) ** -15, "eta'(1) form")
        rep = deninger_f(mpf(1) / 2, cfg20)
        assert rep.passed

    @pytest.mark.parametrize("x", ["0.25", "1/3"])
    def test_points(self, x, cfg20):
        x = mpf(1) / 3 if x == "1/3" else mpf(x)
        rep = deninger_f(x, cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -4

    def test_cosine_symmetry(self, cfg20):
        # cos-type identity invariant under x -> 1-x
        a = deninger_f(mpf("0.3"), cfg20)
        b = deninger_f(mpf("0.7"), cfg20)
        assert abs(a.lhs - b.lhs) < mpf(10) ** -8


class TestLandauF:
    @pytest.mark.parametrize("x", ["0.25", "1/6", "0.125"])
    def test_points(self, x, cfg20):
        x = mpf(1) / 6 if x == "1/6" else mpf(x)
        rep = landau_f_functional(x, cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -4

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            landau_f_functional(mpf("0.6"), cfg20)


class TestGamma1Fourier:
    def test_at_half(self, cfg20):
        res = gamma1_fourier(mpf(1) / 2, cfg20)
        assert abs(res.value - mpf(GAMMA1_HALF)) < mpf(10) ** -4

    def test_at_quarter_vs_rational(self, cfg20):
        res = gamma1_fourier(mpf(1) / 4, cfg20)
        ref = gamma1_rational(Fraction(1, 4), cfg20)
        assert abs(res.value - ref) < mpf(10) ** -4

    def test_at_third_vs_series(self, cfg20):
        res = gamma1_fourier(mpf(1) / 3, cfg20)
        ref = hasse_gamma(1, mpf(1) / 3, cfg20).value
        assert abs(res.value - ref) < mpf(10) ** -4

    def test_endpoint_guard(self, cfg20):
        with pytest.raises(DomainError):
            gamma1_fourier(mpf("0.0001"), cfg20)


class TestLogRatioFamily:
    def test_325_vanishes_at_half(self, cfg20):
        rep = series_325_family(mpf(1) / 2, "3.25", cfg20)
        assert rep.passed
        assert abs(rep.lhs) < mpf(10) ** -18  # cos((2n+1)pi/2) = 0 termwise
        assert abs(rep.rhs) < mpf(10) ** -18

    def test_327_quarter(self, cfg20):
        rep = series_325_family(Fraction(1, 4), "3.27", cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -5

    @pytest.mark.parametrize("which", ["3.28", "3.29"])
    def test_full_circle_forms(self, which, cfg20):
        rep = series_325_family(mpf(1) / 3, which, cfg20)
        assert rep.passed and rep.residual < mpf(10) ** -4

    def test_329_sine_antisymmetry(self, cfg20):
        a = series_325_family(mpf("0.3"), "3.29", cfg20)
        b = series_325_family(mpf("0.7"), "3.29", cfg20)
        assert abs(a.lhs + b.lhs) < mpf(10) ** -8  # sin-type flips sign

    def test_convergence_sanity(self):
        # residual does not degrade (within noise factor 2) with 10x terms
        x = mpf("0.37")
        lo = PrecisionConfig(digits=20, max_terms=700,
                             tolerance=mpf(10) ** -30)
        hi = PrecisionConfig(digits=20, max_terms=7000,
                             tolerance=mpf(10) ** -30)
        r_lo = series_325_family(x, "3.28", lo)
        r_hi = series_325_family(x, "3.28", hi)
        assert r_hi.residual <= 2 * r_lo.residual + mpf(10) ** -18


class TestKolbig:
    def test_three_way(self, cfg20):
        rep_eq, rep_quad, rep_int = kolbig_check(cfg20)
        assert rep_eq.passed and rep_eq.residual < mpf(10) ** -10
        assert rep_quad.passed and rep_quad.residual < mpf(10) ** -8
        assert rep_int.passed and rep_int.residual < mpf(10) ** -8


class TestSondow:
    def test_at_one(self, cfg30):
        res = sondow_gamma(mpf(1), cfg30)
        assert_close(res.value, mpf(GAMMA), mpf(10) ** -20, "gamma(1)")
        assert not isinstance(res.value, mpc)

    def test_at_minus_one(self, cfg30):
        res = sondow_gamma(mpf(-1), cfg30)
        assert_close(res.value, mp.log(4 / mp.pi), mpf(10) ** -20, "gamma(-1)")

    def test_series_vs_integral_inside_disc(self, cfg20):
        r1 = sondow_gamma(mpf(1) / 2, cfg20, route="series").value
        r2 = sondow_gamma(mpf(1) / 2, cfg20, route="integral").value
        assert abs(r1 - r2) < mpf(10) ** -8

    def test_2q_formula_at_i(self, cfg20):
        series = sondow_gamma(Fraction(1, 2), cfg20, route="series").value
        closed = sondow_gamma(Fraction(1, 2), cfg20, route="2q").value
        assert abs(series - closed) < mpf(10) ** -6

    def test_minus_one_claim_covers_at_50_digits(self):
        # the kernel's claim at z = -1, on the circle or on the real line
        for z in (mpf(-1), Fraction(1)):
            res = sondow_gamma(z, PrecisionConfig(digits=50))
            assert res.converged
            assert abs(res.value - mp.log(4 / mp.pi)) <= res.err_estimate

    def test_2q_formula_at_minus_one(self, cfg20):
        closed = sondow_gamma(Fraction(1, 1), cfg20, route="2q").value
        assert abs(closed.real - mp.log(4 / mp.pi)) < mpf(10) ** -15
        assert abs(closed.imag) < mpf(10) ** -15

    @pytest.mark.parametrize("z,route", [
        (Fraction(1, 3), "series"), (Fraction(1), "series"),
        (Fraction(1, 3), "2q"), (mpf(1), "series"), (mpf(1) / 2, "series"),
        (mpf(-1) / 3, "series"), (mpf(1) / 2, "integral")])
    def test_claims_cover_the_actual_error(self, z, route, cfg30):
        # reference: the 2q closed form on the circle, the integral inside
        ref_cfg = PrecisionConfig(digits=60)
        if isinstance(z, Fraction):
            ref = sondow_gamma(z, ref_cfg, route="2q").value
        else:
            ref = sondow_gamma(z, ref_cfg, route="integral").value
        res = sondow_gamma(z, cfg30, route=route)
        assert abs(res.value - ref) <= res.err_estimate
        assert res.converged

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            sondow_gamma(mpf(2), cfg20, route="integral")
        with pytest.raises(DomainError):
            sondow_gamma(mpf("1.5"), cfg20, route="series")
