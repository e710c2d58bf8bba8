import pytest
from mpmath import mp, mpf

from stieltjes.core import DomainError, PrecisionConfig
from stieltjes.kernels import (hurwitz_zeta_em, integrate_adaptive,
                               sum_oscillatory_ibp,
                               integrate_oscillatory,
                               sum_alternating_accelerated, sum_trig_averaged)

from conftest import assert_close
from reference_values import ETA3, OSC_LOG_RECIP, OSC_RECIP, ZETA2, ZETA3


class TestAlternating:
    def test_log2(self, cfg30):
        res = sum_alternating_accelerated(lambda n: mpf(-1) ** (n + 1) / n, cfg30)
        assert res.converged
        assert_close(res.value, mp.log(2), mpf(10) ** -28, "log 2")

    def test_zero_series(self, cfg30):
        res = sum_alternating_accelerated(lambda n: mpf(0), cfg30)
        assert res.converged
        assert res.value == 0
        assert res.terms_used <= 200

    def test_wallis_product_log(self, cfg30):
        res = sum_alternating_accelerated(
            lambda n: mpf(-1) ** (n + 1) * mp.log(1 + mpf(1) / n), cfg30)
        assert_close(res.value, mp.log(mp.pi / 2), mpf(10) ** -25, "log(pi/2)")

    @pytest.mark.parametrize("s,closed", [
        (1, None), (2, None), (3, None),
    ])
    def test_agrees_with_direct_eta(self, s, closed, cfg20):
        # eta(s) = sum (-1)^(n+1)/n^s against direct summation / closed forms
        res = sum_alternating_accelerated(
            lambda n: mpf(-1) ** (n + 1) / mpf(n) ** s, cfg20)
        ref = {1: mp.log(2), 2: mp.pi ** 2 / 12, 3: mpf(ETA3)}[s]
        assert_close(res.value, ref, mpf(10) ** -18, f"eta({s})")

    def test_error_estimate_honest(self, cfg20):
        res = sum_alternating_accelerated(
            lambda n: mpf(-1) ** (n + 1) / n, cfg20)
        true_err = abs(res.value - mp.log(2))
        assert true_err <= 3 * max(res.err_estimate, mpf(10) ** -22)


class TestTrigAveraged:
    def test_sawtooth_quarter(self, cfg20):
        # sum sin(2 pi n x)/n = pi(1/2 - x)
        x = mpf(1) / 4
        res = sum_trig_averaged(lambda n: mpf(1) / n, "sin", x, cfg20)
        assert_close(res.value, mp.pi / 4, mpf(10) ** -12, "sawtooth")

    def test_log_two_at_half(self, cfg20):
        res = sum_trig_averaged(lambda n: mpf(1) / n, "cos", mpf(1) / 2, cfg20)
        assert_close(res.value, -mp.log(2), mpf(10) ** -15, "-log 2")

    def test_sine_zeros_at_half(self, cfg20):
        # every term sin(2 pi n / 2) vanishes
        res = sum_trig_averaged(lambda n: mp.log(n + 1) / n, "sin",
                                mpf(1) / 2, cfg20)
        assert res.value == 0
        assert res.converged

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            sum_trig_averaged(lambda n: mpf(1) / n, "sin", mpf(2), cfg20)

    def test_brute_force_window(self, cfg20):
        # value within 3x err_estimate of a long plain Cesaro reference
        x = mpf("0.37")
        res = sum_trig_averaged(lambda n: mpf(1) / n, "cos", x, cfg20)
        ref = -mp.log(2 * mp.sin(mp.pi * x))
        assert abs(res.value - ref) <= 3 * max(res.err_estimate, mpf(10) ** -20)

    def test_precision_monotonicity(self):
        x = mpf("0.3")
        ref = -mp.log(2 * mp.sin(mp.pi * x))
        r_lo = sum_trig_averaged(lambda n: mpf(1) / n, "cos", x,
                                 PrecisionConfig(digits=15))
        r_hi = sum_trig_averaged(lambda n: mpf(1) / n, "cos", x,
                                 PrecisionConfig(digits=25))
        assert abs(r_hi.value - ref) <= abs(r_lo.value - ref) * mpf("1.01")


class TestAdaptiveQuadrature:
    def test_constant(self, cfg30):
        res = integrate_adaptive(lambda t: mpf(1), 0, 1, cfg30)
        assert_close(res.value, 1, mpf(10) ** -28, "unit integral")
        assert res.converged

    def test_infinite_range(self, cfg20):
        res = integrate_adaptive(lambda t: mp.exp(-t), 0, mp.inf, cfg20)
        assert_close(res.value, 1, mpf(10) ** -18, "exp decay")

    def test_endpoint_singularity(self, cfg20):
        # integrable singularity at 0
        res = integrate_adaptive(lambda t: 1 / mp.sqrt(t) if t > 0 else mpf(0),
                                 0, 1, cfg20)
        assert_close(res.value, 2, mpf(10) ** -16, "1/sqrt")


class TestOscillatory:
    def test_zero_function(self, cfg20):
        res = integrate_oscillatory(lambda t: mpf(0), 2 * mp.pi, 0, cfg20)
        assert res.value == 0

    def test_reciprocal(self, cfg20):
        res = integrate_oscillatory(lambda t: 1 / (1 + t), 2 * mp.pi, 0,
                                    cfg20, mode="cos")
        assert_close(res.value, mpf(OSC_RECIP), mpf(10) ** -10, "cos/(1+t)")

    def test_log_reciprocal(self, cfg20):
        res = integrate_oscillatory(lambda t: mp.log(1 + t) / (1 + t),
                                    2 * mp.pi, 0, cfg20, mode="cos")
        assert_close(res.value, mpf(OSC_LOG_RECIP), mpf(10) ** -10,
                     "cos log/(1+t)")

    def test_rejects_growth(self, cfg20):
        with pytest.raises(DomainError):
            integrate_oscillatory(lambda t: t ** 2, 2 * mp.pi, 0, cfg20)


class TestOscillatorySum:
    def test_sine_sum_gives_log_gamma(self, cfg20):
        # Bourguet: sum_n (1/n) int sin(2 pi n t)/(x+t) dt is pi times the
        # remainder of log Gamma(x) after its Stirling part
        x = mpf(3) / 2
        res = sum_oscillatory_ibp([1], 1, x, "sin", 12, 1, cfg20)
        closed = mp.pi * (mp.loggamma(x) - mp.log(2 * mp.pi) / 2
                          - (x - mpf(1) / 2) * mp.log(x) + x)
        assert abs(res.value - closed) < mpf(10) ** -10
        assert abs(res.value - closed) <= res.err_estimate

    def test_log_polynomial_cosine_sum_gives_gamma1(self, cfg20):
        # Briggs with P = L: gamma_1(x) = L/(2x) - L^2/2 + 2 * sum
        x = mpf(3) / 2
        L = mp.log(x)
        res = sum_oscillatory_ibp([0, 1], 1, x, "cos", 14, 0, cfg20)
        closed = (mp.stieltjes(1, x) - L / (2 * x) + L ** 2 / 2) / 2
        assert abs(res.value - closed) < mpf(10) ** -10
        assert abs(res.value - closed) <= res.err_estimate

    def test_sine_needs_weight(self, cfg20):
        with pytest.raises(DomainError):
            sum_oscillatory_ibp([1], 1, 1, "sin", 4, 0, cfg20)


class TestZetaEM:
    def test_basel(self, cfg30):
        assert_close(hurwitz_zeta_em(2, 1, 0, cfg30), mpf(ZETA2),
                     mpf(10) ** -28, "zeta(2)")

    def test_zeta3(self, cfg30):
        assert_close(hurwitz_zeta_em(3, 1, 0, cfg30), mpf(ZETA3),
                     mpf(10) ** -28, "zeta(3)")

    def test_large_s_relative(self, cfg30):
        # relative accuracy matters: tails scale these values back up
        brute = mp.fsum((n + mpf(55)) ** (-30) for n in range(4000))
        v = hurwitz_zeta_em(30, 55, 0, cfg30)
        assert abs(v - brute) / brute < mpf(10) ** -30

    def test_derivative_frozen(self, cfg30):
        from reference_values import ZETA_PRIME2
        v = hurwitz_zeta_em(2, 1, 1, cfg30)
        assert_close(v, mpf(ZETA_PRIME2), mpf(10) ** -28, "zeta'(2)")

    def test_derivative_brute(self, cfg30):
        # truncated brute reference carries ~1e-18 tail of its own
        brute = -mp.fsum(mp.log(n) / mpf(n) ** 6 for n in range(2, 4000))
        v = hurwitz_zeta_em(6, 1, 1, cfg30)
        assert_close(v, brute, mpf(10) ** -15, "zeta'(6)")

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            hurwitz_zeta_em(mpf(1) / 2, 1, 0, cfg20)
