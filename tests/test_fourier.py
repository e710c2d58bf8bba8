from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from stieltjes import fourier
from stieltjes.core import DomainError, PrecisionConfig
from stieltjes.constants import hasse_gamma, gamma1_rational
from stieltjes.fourier import (deninger_closed, deninger_f, gamma1_fourier,
                               kolbig_check, kummer_log_gamma,
                               landau_f_functional, lerch_transform,
                               series_316, series_325_family,
                               series_327_rational, sondow_gamma,
                               wallis_alternating)
from stieltjes.gammafuncs import digamma, log_gamma
from stieltjes.kernels import sum_alternating_accelerated, sum_trig_averaged
from stieltjes.suites import SUITES

from conftest import assert_claim, assert_close, record_results, sides
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
        res = kummer_log_gamma(mpf(1) / 2, cfg20)
        assert_close(res.value, log_gamma(mpf(1) / 2, cfg20).value,
                     mpf(10) ** -5, "kummer at 1/2")
        assert_close(log_gamma(mpf(1) / 2, cfg20).value, mp.log(mp.pi) / 2,
                     mpf(10) ** -18, "log G(1/2)")

    @pytest.mark.parametrize("x", ["0.25", "1/3"])
    def test_interior(self, x, cfg20):
        x = mpf(1) / 3 if x == "1/3" else mpf(x)
        assert_close(kummer_log_gamma(x, cfg20).value,
                     log_gamma(x, cfg20).value, mpf(10) ** -5, "kummer")

    @pytest.mark.parametrize("x", [mpf(1) / 4, mpf("0.9")])
    def test_claim_covers_the_actual_error(self, x, cfg30):
        # the sine sum's claim over pi, against mpmath's own loggamma
        assert_claim(kummer_log_gamma(x, cfg30), lambda: mp.loggamma(x), 30)


class TestOddSineSeries:
    ODD_SINE = sides("series-316", "odd-sine-log-series")

    def test_reduces_to_wallis_at_half(self, cfg20):
        lhs, rhs = self.ODD_SINE
        assert_close(lhs(mpf(1) / 2, cfg20), rhs(mpf(1) / 2, cfg20),
                     mpf(10) ** -5, "series 3.16 at 1/2")
        # RHS at 1/2: -(psi(1/2) + gamma + log 2 pi); equals log(pi/2) shape
        wallis = wallis_alternating(cfg20)
        assert_close(wallis.value, mp.log(mp.pi / 2), mpf(10) ** -15,
                     "log(pi/2)")

    def test_wallis_claim_covers_at_50_digits(self):
        assert_claim(wallis_alternating(PrecisionConfig(digits=50)),
                     lambda: mp.log(mp.pi / 2), 50)

    @pytest.mark.parametrize("x", ["0.25", "0.75"])
    def test_points(self, x, cfg20):
        lhs, rhs = self.ODD_SINE
        assert series_316(mpf(x), cfg20).value == lhs(mpf(x), cfg20)
        assert_close(lhs(mpf(x), cfg20), rhs(mpf(x), cfg20), mpf(10) ** -5,
                     "series 3.16")


class TestDeninger:
    def test_alternating_value_at_half(self, cfg20):
        # LHS at 1/2 is sum (-1)^n log n/n = gamma log 2 - log^2 2/2;
        # Euler-accelerated direct summation is the oracle here
        direct = sum_alternating_accelerated(
            lambda n: mpf(-1) ** n * mp.log(n) / n if n > 1 else mpf(0),
            cfg20)
        closed = mp.euler * mp.log(2) - mp.log(2) ** 2 / 2
        assert_close(direct.value, closed, mpf(10) ** -15, "eta'(1) form")
        assert_close(deninger_f(mpf(1) / 2, cfg20).value,
                     deninger_closed(mpf(1) / 2, cfg20), mpf(10) ** -4,
                     "f(1/2)")

    @pytest.mark.parametrize("x", ["0.25", "1/3"])
    def test_points(self, x, cfg20):
        x = mpf(1) / 3 if x == "1/3" else mpf(x)
        assert_close(deninger_f(x, cfg20).value, deninger_closed(x, cfg20),
                     mpf(10) ** -4, "f(x)")

    def test_cosine_symmetry(self, cfg20):
        # cos-type series invariant under x -> 1-x
        a = deninger_f(mpf("0.3"), cfg20)
        b = deninger_f(mpf("0.7"), cfg20)
        assert abs(a.value - b.value) < mpf(10) ** -8


class TestLandauF:
    @pytest.mark.parametrize("x", ["0.25", "1/6", "0.125"])
    def test_points(self, x, cfg20):
        x = mpf(1) / 6 if x == "1/6" else mpf(x)
        assert_close(deninger_closed(x + mpf(1) / 2, cfg20),
                     landau_f_functional(x, cfg20), mpf(10) ** -4,
                     "f(x + 1/2)")

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


def _log_ratio(x, mode, cfg, odd=False):
    # sum log(1+1/n) trig(2 pi n x), or trig((2n+1) pi x) if odd
    return sum_trig_averaged(lambda n: mp.log(1 + mpf(1) / n), mode, x, cfg,
                             odd_multiples=odd).value


class TestLogRatioFamily:
    def test_325_vanishes_at_half(self, cfg20):
        lhs = _log_ratio(mpf(1) / 2, "cos", cfg20, odd=True)
        rhs = series_325_family(mpf(1) / 2, cfg20)[0]
        assert abs(lhs) < mpf(10) ** -18  # cos((2n+1)pi/2) = 0 termwise
        assert abs(rhs) < mpf(10) ** -18

    def test_327_quarter(self, cfg20):
        assert_close(_log_ratio(mpf(1) / 4, "cos", cfg20, odd=True),
                     series_327_rational(Fraction(1, 4), cfg20),
                     mpf(10) ** -5, "3.27")

    @pytest.mark.parametrize("which", ["3.28", "3.29"])
    def test_full_circle_forms(self, which, cfg20):
        x = mpf(1) / 3
        mode, closed = ("cos", 1) if which == "3.28" else ("sin", 2)
        assert_close(_log_ratio(x, mode, cfg20),
                     series_325_family(x, cfg20)[closed], mpf(10) ** -4,
                     which)

    def test_suite_computes_each_value_once(self, monkeypatch, cfg20):
        # gamma_1(2/3) and gamma_1(1/3) once each, shared by the three
        # members at x = 1/3
        calls = record_results(monkeypatch, fourier, "hasse_gamma")
        reports = SUITES["series-325-family"](cfg20)
        assert len(calls) == 2
        assert [r.identity for r in reports] == [
            "odd-cosine-stieltjes", "odd-cosine-rational",
            "cosine-stieltjes", "sine-stieltjes"]
        assert all(r.passed for r in reports)

    def test_329_sine_antisymmetry(self, cfg20):
        a = _log_ratio(mpf("0.3"), "sin", cfg20)
        b = _log_ratio(mpf("0.7"), "sin", cfg20)
        assert abs(a + b) < mpf(10) ** -8  # sin-type flips sign


class TestKolbig:
    def test_three_way(self, cfg20):
        S1, S2, quad = (r.value for r in kolbig_check(cfg20))
        g = mp.euler + mp.log(2 * mp.pi)
        assert abs(2 * S1 - S2) < mpf(10) ** -10
        assert abs(quad - (-(2 / mp.pi) * (g + 2 * S1))) < mpf(10) ** -8
        assert abs(quad - (-(2 / mp.pi) * g - (2 / mp.pi) * S2)) \
            < mpf(10) ** -8

    def test_sums_run_to_the_request_at_120_digits(self):
        # S1 stopped at j = 60, its last term 2.45e-74 against 1e-122
        cfg = PrecisionConfig(digits=120)
        with cfg.workprec(40):
            s1, s2 = fourier._kolbig_s1(cfg), fourier._kolbig_s2(cfg)
            assert s1.converged and s2.converged
            assert (abs(2 * s1.value - s2.value)
                    <= 2 * s1.err_estimate + s2.err_estimate)

    def test_s1_sums_later_terms_directly(self, monkeypatch):
        # each of the 83 terms at 100 digits ran the EM engine on
        # zeta'(2j, 1); from j = 23 on a direct sum of <= 128 terms does
        calls = record_results(monkeypatch, fourier, "hurwitz_zeta_em")
        cfg = PrecisionConfig(digits=100)
        with cfg.workprec(40):
            s1 = fourier._kolbig_s1(cfg)
        assert s1.converged and s1.terms_used == 83
        assert len(calls) <= 30


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
            assert_claim(sondow_gamma(z, PrecisionConfig(digits=50)),
                         lambda: mp.log(4 / mp.pi), 50)

    @pytest.mark.parametrize("z", [mpf(-1), Fraction(1)])
    def test_minus_one_sums_the_cosine_series_only(self, z, cfg20,
                                                   monkeypatch):
        # at x = 1/2 the sine series vanishes term by term
        sums = record_results(monkeypatch, fourier, "sum_trig_averaged")
        res = sondow_gamma(z, cfg20)
        (cos,) = sums
        assert res.terms_used == cos.terms_used
        assert_close(res.value.real, mp.log(4 / mp.pi), mpf(10) ** -20,
                     "gamma(-1)")

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
        ref_route = "2q" if isinstance(z, Fraction) else "integral"
        assert_claim(sondow_gamma(z, cfg30, route=route),
                     lambda: sondow_gamma(z, PrecisionConfig(digits=mp.dps),
                                          route=ref_route).value, 30)

    @pytest.mark.parametrize("digits", [20, 50, 100])
    @pytest.mark.parametrize("n", [8, 9, 64, 10 ** 3, 10 ** 6])
    def test_euler_coeff_within_two_ulps(self, n, digits):
        with mp.workdps(digits):
            a = fourier._euler_coeff(n)
            prec = mp.prec
        with mp.workprec(prec + 200):
            ref = mpf(1) / n - mp.log1p(mpf(1) / n)
            assert abs(a - ref) <= 2 * mpf(2) ** (mp.mag(ref) - prec)

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            sondow_gamma(mpf(2), cfg20, route="integral")
        with pytest.raises(DomainError):
            sondow_gamma(mpf("1.5"), cfg20, route="series")
