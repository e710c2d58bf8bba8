import pytest
from mpmath import mp, mpf

from stieltjes import kernels
from stieltjes.constants import briggs_gamma
from stieltjes.core import DomainError, PoleError, PrecisionConfig
from stieltjes.gammafuncs import (_log_kernel_bracket, bourguet_log_gamma,
                                  digamma)
from stieltjes.hurwitz import poisson_zeta
from stieltjes.kernels import (hurwitz_zeta_em, integrate_adaptive,
                               sum_oscillatory_ibp,
                               integrate_oscillatory,
                               sum_alternating_accelerated, sum_trig_averaged)

from conftest import assert_close, record_results
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


def _kolbig_closed_form():
    # -(2/pi)(gamma + log 2 pi + 2 sum_{n>=2} log n / (4 n^2 - 1)), the sum
    # regrouped as sum_j -zeta'(2j) / 4^j
    tail = mp.nsum(lambda j: -mp.zeta(2 * j, 1, 1) / 4 ** j, [1, mp.inf])
    return -(2 / mp.pi) * (mp.euler + mp.log(2 * mp.pi) + 2 * tail)


def _bracket(x):
    return lambda u: (-(u ** (x - 1)) * _log_kernel_bracket(u)
                      if 0 < u < 1 else mpf(0))


def _coffey(n, x):
    return lambda u: (u ** (x - 1) * (1 - u) ** n / mp.log(u)
                      if 0 < u < 1 else mpf(0))


# (label, integrand, a, b, exact value); every reference is independent of
# tanh-sinh quadrature
_EXACT_INTEGRALS = [
    ("psi-sin", lambda t: mp.digamma(t) * mp.sinpi(t) if 0 < t < 1
     else mpf(0), 0, 1, _kolbig_closed_form),
    ("exp", lambda t: mp.exp(-t), 0, mp.inf, lambda: mpf(1)),
    ("bracket-1", _bracket(1), 0, 1, lambda: -mp.euler),
    ("bracket-e", _bracket(mp.e), 0, 1, lambda: mp.digamma(mp.e) - 1),
    ("coffey-2-1", _coffey(2, 1), 0, 1,
     lambda: -2 * mp.log(2) + mp.log(3)),
    ("coffey-1-2", _coffey(1, 2), 0, 1, lambda: mp.log(2) - mp.log(3)),
]


class TestAdaptiveClaims:
    @pytest.mark.parametrize("digits", [20, 30])
    @pytest.mark.parametrize("label,f,a,b,exact", _EXACT_INTEGRALS,
                             ids=[c[0] for c in _EXACT_INTEGRALS])
    def test_claim_covers_error_and_meets_request(self, label, f, a, b,
                                                  exact, digits):
        res = integrate_adaptive(f, a, b, PrecisionConfig(digits=digits))
        ref = exact()
        assert abs(res.value - ref) <= res.err_estimate, label
        assert res.err_estimate <= res.tol * max(1, abs(ref)), label

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_endpoint_singularity_claim_is_honest(self, digits):
        # the nodes stop short of t = 0, which leaves about 2 sqrt(t_min)
        # out; the claim must cover that truncation, converged or not
        res = integrate_adaptive(lambda t: 1 / mp.sqrt(t) if t > 0
                                 else mpf(0), 0, 1,
                                 PrecisionConfig(digits=digits))
        assert abs(res.value - 2) <= res.err_estimate

    def test_kolbig_integrand_budget(self, cfg20):
        # the package's psi is good to ~1e-29 at 20 digits; levels past the
        # request only chase that noise
        calls = []

        def f(t):
            calls.append(t)
            if not 0 < t < 1:
                return mpf(0)
            return digamma(t, cfg20).value * mp.sin(mp.pi * t)

        res = integrate_adaptive(f, 0, 1, cfg20)
        assert len(calls) <= 400
        assert res.terms_used == len(calls)
        assert res.converged
        assert abs(res.value - _kolbig_closed_form()) <= mpf(10) ** -20

    def test_unsettled_levels_go_past_the_first_pass(self, cfg20):
        # a jump converges only like the step, so the levels never agree:
        # the kernel must evaluate nodes that mpmath's default degree at the
        # same node precision never reaches
        cut = 1 / mp.pi
        seen, first_pass = set(), set()

        def step(record):
            def f(t):
                record.add(t)
                return mpf(1) if t < cut else mpf(0)
            return f

        res = integrate_adaptive(step(seen), 0, 1, cfg20)
        with mp.workprec(cfg20.working_bits + 40):
            mp.quad(step(first_pass), [0, 1])
        assert first_pass < seen
        assert not res.converged
        assert abs(res.value - cut) <= res.err_estimate


class TestOscillatory:
    def test_zero_function(self, cfg20):
        res = integrate_oscillatory(lambda t: mpf(0), 2 * mp.pi, cfg20)
        assert res.value == 0

    def test_reciprocal(self, cfg20):
        res = integrate_oscillatory(lambda t: 1 / (1 + t), 2 * mp.pi, cfg20,
                                    mode="cos")
        assert_close(res.value, mpf(OSC_RECIP), mpf(10) ** -10, "cos/(1+t)")

    def test_log_reciprocal(self, cfg20):
        res = integrate_oscillatory(lambda t: mp.log(1 + t) / (1 + t),
                                    2 * mp.pi, cfg20, mode="cos")
        assert_close(res.value, mpf(OSC_LOG_RECIP), mpf(10) ** -10,
                     "cos log/(1+t)")

    def test_rejects_growth(self, cfg20):
        with pytest.raises(DomainError):
            integrate_oscillatory(lambda t: t ** 2, 2 * mp.pi, cfg20)

    @pytest.mark.parametrize("g,ref", [
        (lambda t: 1 / (1 + t), OSC_RECIP),
        (lambda t: mp.log(1 + t) / (1 + t), OSC_LOG_RECIP)])
    @pytest.mark.parametrize("digits", [10, 12, 20])
    def test_claim_covers_error(self, g, ref, digits):
        res = integrate_oscillatory(g, 2 * mp.pi,
                                    PrecisionConfig(digits=digits), mode="cos")
        assert abs(res.value - mpf(ref)) <= res.err_estimate


# the oscillatory routes at 12 digits against mpmath; their integrals stop
# near 1e-12, so only the claims are asserted, not the verdicts
_OSC_ROUTES = [
    ("briggs-0-1", lambda c: briggs_gamma(0, 1, c), lambda: mp.stieltjes(0, 1)),
    ("briggs-1-1", lambda c: briggs_gamma(1, 1, c), lambda: mp.stieltjes(1, 1)),
    ("briggs-1-3/2", lambda c: briggs_gamma(1, mpf(3) / 2, c),
     lambda: mp.stieltjes(1, mpf(3) / 2)),
    ("poisson-2-1", lambda c: poisson_zeta(2, 1, c), lambda: mp.zeta(2)),
    ("poisson-3-1/2", lambda c: poisson_zeta(3, mpf(1) / 2, c),
     lambda: mp.zeta(3, mpf(1) / 2)),
    ("poisson-5/2-2", lambda c: poisson_zeta(mpf(5) / 2, 2, c),
     lambda: mp.zeta(mpf(5) / 2, 2)),
    ("bourguet-1", lambda c: bourguet_log_gamma(1, c), lambda: mpf(0)),
    ("bourguet-5/2", lambda c: bourguet_log_gamma(mpf(5) / 2, c),
     lambda: mp.loggamma(mpf(5) / 2)),
    ("bourguet-1/2", lambda c: bourguet_log_gamma(mpf(1) / 2, c),
     lambda: mp.loggamma(mpf(1) / 2)),
]


@pytest.mark.parametrize("label,route,exact", _OSC_ROUTES,
                         ids=[r[0] for r in _OSC_ROUTES])
def test_oscillatory_route_claims_cover_error(label, route, exact):
    res = route(PrecisionConfig(digits=12))
    assert abs(res.value - exact()) <= res.err_estimate, label


# the oscillatory routes at small x, against mpmath at 10 digits: each
# shifts x up by its recurrence, so it meets the request here as at x = 1
_OSC_SMALL_X = [
    ("poisson-2", lambda x, c: poisson_zeta(2, x, c),
     lambda x: mp.zeta(2, x)),
    ("poisson-5", lambda x, c: poisson_zeta(5, x, c),
     lambda x: mp.zeta(5, x)),
    ("briggs-0", lambda x, c: briggs_gamma(0, x, c),
     lambda x: mp.stieltjes(0, x)),
    ("briggs-1", lambda x, c: briggs_gamma(1, x, c),
     lambda x: mp.stieltjes(1, x)),
    ("bourguet", lambda x, c: bourguet_log_gamma(x, c),
     lambda x: mp.loggamma(x)),
]


@pytest.mark.parametrize("x", ["1/100", "1/10", "1/3"])
@pytest.mark.parametrize("label,route,exact", _OSC_SMALL_X,
                         ids=[r[0] for r in _OSC_SMALL_X])
def test_oscillatory_routes_meet_the_request_at_small_x(label, route, exact,
                                                        x):
    num, den = x.split("/")
    x = mpf(num) / int(den)
    res = route(x, PrecisionConfig(digits=10))
    assert res.converged, label
    assert abs(res.value - exact(x)) <= res.err_estimate, label


class TestOscillatorySum:
    @pytest.mark.parametrize("x,most", [(1, 6), (10, 1)])
    def test_head_length_follows_the_stop(self, x, most, monkeypatch):
        # the kernel runs only as many integrals as its tail needs to reach
        # the integrals' own stop: fewer as x grows
        integrals = record_results(monkeypatch, kernels,
                                   "integrate_oscillatory")
        res = sum_oscillatory_ibp([1], 1, x, "sin", 1,
                                  PrecisionConfig(digits=12))
        assert 1 <= len(integrals) <= most
        x = mpf(x)
        closed = mp.pi * (mp.loggamma(x) - mp.log(2 * mp.pi) / 2
                          - (x - mpf(1) / 2) * mp.log(x) + x)
        assert abs(res.value - closed) <= res.err_estimate

    def test_rejects_x_below_one(self, cfg20):
        with pytest.raises(DomainError):
            sum_oscillatory_ibp([1], 1, mpf(1) / 2, "sin", 1, cfg20)

    def test_sine_sum_gives_log_gamma(self, cfg20):
        # Bourguet: sum_n (1/n) int sin(2 pi n t)/(x+t) dt is pi times the
        # remainder of log Gamma(x) after its Stirling part
        x = mpf(3) / 2
        res = sum_oscillatory_ibp([1], 1, x, "sin", 1, cfg20)
        closed = mp.pi * (mp.loggamma(x) - mp.log(2 * mp.pi) / 2
                          - (x - mpf(1) / 2) * mp.log(x) + x)
        assert abs(res.value - closed) < mpf(10) ** -10
        assert abs(res.value - closed) <= res.err_estimate

    def test_log_polynomial_cosine_sum_gives_gamma1(self, cfg20):
        # Briggs with P = L: gamma_1(x) = L/(2x) - L^2/2 + 2 * sum
        x = mpf(3) / 2
        L = mp.log(x)
        res = sum_oscillatory_ibp([0, 1], 1, x, "cos", 0, cfg20)
        closed = (mp.stieltjes(1, x) - L / (2 * x) + L ** 2 / 2) / 2
        assert abs(res.value - closed) < mpf(10) ** -10
        assert abs(res.value - closed) <= res.err_estimate

    def test_sine_needs_weight(self, cfg20):
        with pytest.raises(DomainError):
            sum_oscillatory_ibp([1], 1, 1, "sin", 0, cfg20)


class TestZetaEM:
    def test_basel(self, cfg30):
        assert_close(hurwitz_zeta_em(2, 1, 0, cfg30).value, mpf(ZETA2),
                     mpf(10) ** -28, "zeta(2)")

    def test_zeta3(self, cfg30):
        assert_close(hurwitz_zeta_em(3, 1, 0, cfg30).value, mpf(ZETA3),
                     mpf(10) ** -28, "zeta(3)")

    def test_large_s_relative(self, cfg30):
        # relative accuracy matters: tails scale these values back up
        brute = mp.fsum((n + mpf(55)) ** (-30) for n in range(4000))
        v = hurwitz_zeta_em(30, 55, 0, cfg30).value
        assert abs(v - brute) / brute < mpf(10) ** -30

    def test_derivative_frozen(self, cfg30):
        from reference_values import ZETA_PRIME2
        v = hurwitz_zeta_em(2, 1, 1, cfg30).value
        assert_close(v, mpf(ZETA_PRIME2), mpf(10) ** -28, "zeta'(2)")

    def test_derivative_brute(self, cfg30):
        # truncated brute reference carries ~1e-18 tail of its own
        brute = -mp.fsum(mp.log(n) / mpf(n) ** 6 for n in range(2, 4000))
        v = hurwitz_zeta_em(6, 1, 1, cfg30).value
        assert_close(v, brute, mpf(10) ** -15, "zeta'(6)")

    def test_domain(self, cfg20):
        # s < 1 is the analytic continuation; only the pole and x <= 0 fail
        with pytest.raises(PoleError):
            hurwitz_zeta_em(1, 1, 0, cfg20)
        with pytest.raises(DomainError):
            hurwitz_zeta_em(mpf(1) / 2, 0, 0, cfg20)
