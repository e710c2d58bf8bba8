import pytest
from mpmath import mp, mpf

from stieltjes.core import DomainError
from stieltjes.gammafuncs import (bourguet_log_gamma, digamma,
                                  digamma_log_integral, log_gamma, polygamma)

from conftest import assert_claim, assert_close
from reference_values import GAMMA, ZETA2, ZETA3


class TestLogGamma:
    def test_at_one(self, cfg30):
        assert_close(log_gamma(1, cfg30).value, 0, mpf(10) ** -28, "log G(1)")

    def test_at_half(self, cfg30):
        assert_close(log_gamma(mpf(1) / 2, cfg30).value, mp.log(mp.pi) / 2,
                     mpf(10) ** -28, "log G(1/2)")

    def test_quarter_product(self, cfg30):
        # Gamma(1/4) Gamma(3/4) = pi sqrt(2)
        lhs = (log_gamma(mpf(1) / 4, cfg30).value
               + log_gamma(mpf(3) / 4, cfg30).value)
        assert_close(lhs, mp.log(mp.pi * mp.sqrt(2)), mpf(10) ** -27,
                     "reflection at 1/4")

    def test_recurrence_grid(self, cfg30):
        for k in range(1, 50):
            x = mpf(k) / 10
            d = log_gamma(x + 1, cfg30).value - log_gamma(x, cfg30).value
            assert_close(d, mp.log(x), mpf(10) ** -26, f"recurrence {x}")

    def test_reflection_grid(self, cfg30):
        for k in range(1, 10):
            x = mpf(k) / 10
            lhs = log_gamma(x, cfg30).value + log_gamma(1 - x, cfg30).value
            rhs = mp.log(mp.pi / mp.sin(mp.pi * x))
            assert_close(lhs, rhs, mpf(10) ** -26, f"reflection {x}")

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            log_gamma(0, cfg20).value
        with pytest.raises(DomainError):
            log_gamma(-2.5, cfg20).value


class TestDigamma:
    def test_at_one(self, cfg40):
        # direct-limit oracle value: psi(1) = -gamma
        assert_close(digamma(1, cfg40).value, -mpf(GAMMA), mpf(10) ** -38,
                     "psi(1)")

    def test_direct_limit_oracle(self, cfg20):
        # sum_{k<=N}(1/k - 1/(k+x-1)) - gamma with explicit tail bracket
        x = mpf("2.7")
        N = 20000
        s = mp.fsum(mpf(1) / k - 1 / (k + x - 1) for k in range(1, N + 1))
        approx = s - mpf(GAMMA)
        # tail is (x-1)/N + O(1/N^2)
        assert abs(digamma(x, cfg20).value - approx) < 2 * (x - 1) / N

    def test_recurrence(self, cfg30):
        x = mpf(3) / 10
        d = digamma(1 + x, cfg30).value - digamma(x, cfg30).value
        assert_close(d, 1 / x, mpf(10) ** -27, "psi recurrence")

    def test_below_log(self, cfg20):
        for x in (mpf(1) / 2, mpf(1), mpf(10)):
            assert digamma(x, cfg20).value - mp.log(x) < 0


class TestPolygamma:
    def test_trigamma_one(self, cfg30):
        assert_close(polygamma(1, 1, cfg30).value, mpf(ZETA2), mpf(10) ** -28,
                     "psi'(1)")

    def test_trigamma_half(self, cfg30):
        # zeta(2, 1/2) = 3 zeta(2) -> psi'(1/2) = pi^2/2
        assert_close(polygamma(1, mpf(1) / 2, cfg30).value, mp.pi ** 2 / 2,
                     mpf(10) ** -27, "psi'(1/2)")

    def test_tetragamma(self, cfg30):
        assert_close(polygamma(2, 1, cfg30).value, -2 * mpf(ZETA3),
                     mpf(10) ** -27, "psi''(1)")

    def test_matches_digamma_differences(self, cfg40):
        # central finite differences of psi at 40 digits
        h = mpf(10) ** -8

        def psi(t):
            return digamma(t, cfg40).value

        for k in (1, 2, 3):
            for x in (mpf(1), mpf("1.7")):
                if k == 1:
                    fd = (psi(x + h) - psi(x - h)) / (2 * h)
                elif k == 2:
                    fd = (psi(x + h) - 2 * psi(x) + psi(x - h)) / h ** 2
                else:
                    fd = (psi(x + 2 * h) - 2 * psi(x + h) + 2 * psi(x - h)
                          - psi(x - 2 * h)) / (2 * h ** 3)
                assert abs(fd - polygamma(k, x, cfg40).value) < mpf(10) ** -8


class TestDigammaIntegral:
    @pytest.mark.parametrize("x", [1, 2])
    def test_residual(self, x, cfg30):
        integral = digamma_log_integral(x, cfg30).value
        assert_close(integral, digamma(x, cfg30).value - mp.log(x),
                     mpf(10) ** -10, "psi(x) - log x")

    def test_negative_at_e(self, cfg20):
        integral = digamma_log_integral(mp.e, cfg20).value
        assert integral < 0  # the integral itself is negative
        assert_close(integral, digamma(mp.e, cfg20).value - 1,
                     mpf(10) ** -10, "psi(e) - 1")

    @pytest.mark.parametrize("q", [3, 10])
    def test_quadrature_meets_the_request_below_one(self, q, cfg20):
        # u^(x-1) is singular at u = 0 for x < 1; in v = u^x it is gone
        x = mpf(1) / q
        quad = digamma_log_integral(x, cfg20)
        assert_claim(quad, lambda: mp.digamma(x) - mp.log(x), 20)
        assert_close(quad.value, digamma(x, cfg20).value - mp.log(x),
                     mpf(10) ** -10, "psi(x) - log x")

    def test_kernel_at_u_one(self, cfg20):
        # at x = 5000 the nodes next to v = 1 give u = v^(1/x) = 1 exactly,
        # where the kernel 1/(1-u) + 1/log u takes its limit 1/2
        x = mpf(5000)
        assert_claim(digamma_log_integral(x, cfg20),
                     lambda: mp.digamma(x) - mp.log(x), 20)


class TestBourguet:
    def test_at_one(self, cfg20):
        res = bourguet_log_gamma(1, cfg20)
        assert abs(res.value) < mpf(10) ** -4

    def test_mid(self, cfg20):
        res = bourguet_log_gamma(mpf(5) / 2, cfg20)
        ref = log_gamma(mpf(5) / 2, cfg20).value
        assert abs(res.value - ref) < mpf(10) ** -4

    def test_large_small_n(self, cfg20):
        res = bourguet_log_gamma(10, cfg20)
        assert abs(res.value - log_gamma(10, cfg20).value) < mpf(10) ** -4
