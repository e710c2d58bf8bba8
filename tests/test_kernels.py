import time
from fractions import Fraction

import pytest
from mpmath import iv, mp, mpf

from stieltjes import gauss, kernels
from stieltjes.constants import briggs_gamma
from stieltjes.core import DomainError, PoleError, PrecisionConfig
from stieltjes.fourier import gamma1_fourier, kolbig_check, sondow_gamma
from stieltjes.gammafuncs import (_log_kernel_bracket, bourguet_log_gamma,
                                  digamma)
from stieltjes.gauss import integrate_analytic, sum_oscillatory
from stieltjes.hurwitz import (poisson_zeta, zeta_doubleprime0, zeta_fourier,
                               zeta_prime0)
from stieltjes.kernels import (hurwitz_zeta_em, integrate_adaptive,
                               integrate_oscillatory,
                               sum_alternating_accelerated, sum_trig_averaged)

from conftest import assert_claim, assert_close, assert_covers, record_results
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


def _halves(radius_bits=None):
    """term(n) of sum_{n>=1} 2^-n: the interval 2^-n (1 +- 2^-radius_bits),
    or the point 2^-n, with the rest 2^-n."""
    def term(n):
        t = iv.mpf(2) ** -n
        if radius_bits is not None:
            t += iv.mpf([-1, 1]) * t * mpf(2) ** -radius_bits
        return t, mpf(2) ** -n
    return term


class TestMajorized:
    def test_interval_terms_give_midpoint_and_radius(self, cfg20):
        with cfg20.workprec():
            res = kernels.sum_majorized(_halves(40), 0, cfg20)
        n = res.terms_used
        # the ends are exact at the working bits, so the midpoint is too
        assert res.value == 1 - mpf(2) ** -n
        least = (1 - mpf(2) ** -n) * mpf(2) ** -40 + mpf(2) ** -n
        assert least <= res.err_estimate <= least * (1 + mpf(2) ** -100)
        assert abs(res.value - 1) <= res.err_estimate
        assert not res.converged  # radii of 2^-40 miss 20 digits

    def test_no_bound_up_to_the_cap_is_unconverged(self, cfg20, monkeypatch):
        monkeypatch.setattr(kernels, "TERM_CAP", 5)
        with cfg20.workprec():
            res = kernels.sum_majorized(lambda n: (iv.mpf(1) / n, mp.inf), 0,
                                        cfg20)
        assert res.terms_used == 5
        assert not res.converged
        assert res.err_estimate == mp.inf
        assert mp.isfinite(res.value)
        assert abs(res.value - mpf(137) / 60) <= mpf(10) ** -30

    @pytest.mark.parametrize("base", [0, 10 ** 6, -10 ** 6])
    def test_stops_at_the_first_bound_under_a_quarter_tol(self, cfg20, base):
        tol = cfg20.tol()
        first = next(n for n in range(1, 200) if mpf(2) ** -n
                     <= tol * max(1, abs(base + 1 - mpf(2) ** -n)) / 4)
        with cfg20.workprec():
            res = kernels.sum_majorized(_halves(), mpf(base), cfg20)
        assert res.terms_used == first
        assert first == (69 if base == 0 else 49)


class TestTrigAveraged:
    def test_sawtooth_quarter(self, cfg20):
        # sum sin(2 pi n x)/n = pi(1/2 - x)
        x = mpf(1) / 4
        res = sum_trig_averaged(lambda n: mpf(1) / n, "sin", x, cfg20)
        assert_claim(res, lambda: mp.pi / 4, 20)

    def test_log_two_at_half(self, cfg20):
        res = sum_trig_averaged(lambda n: mpf(1) / n, "cos", mpf(1) / 2, cfg20)
        assert_claim(res, lambda: -mp.log(2), 20)

    def test_sine_zeros_at_half(self, cfg20):
        # every term sin(2 pi n / 2) vanishes
        res = sum_trig_averaged(lambda n: mp.log(n + 1) / n, "sin",
                                mpf(1) / 2, cfg20)
        assert res.value == 0
        assert res.converged

    def test_domain(self, cfg20):
        with pytest.raises(DomainError):
            sum_trig_averaged(lambda n: mpf(1) / n, "sin", mpf(2), cfg20)

    def test_log_sine_at_generic_x(self, cfg20):
        x = mpf("0.37")
        res = sum_trig_averaged(lambda n: mpf(1) / n, "cos", x, cfg20)
        assert_claim(res, lambda: -mp.log(2 * mp.sinpi(x)), 20)

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
        assert_claim(res, exact, digits)

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_endpoint_singularity_claim_is_honest(self, digits):
        # the nodes stop short of t = 0, which leaves about 2 sqrt(t_min)
        # out; the claim must cover that truncation, converged or not
        res = integrate_adaptive(lambda t: 1 / mp.sqrt(t) if t > 0
                                 else mpf(0), 0, 1,
                                 PrecisionConfig(digits=digits))
        assert_covers(res, lambda: 2)

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
        assert_covers(res, lambda: cut)


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
        assert_covers(res, lambda: mpf(ref))


# the routes that glue oscillatory kernels' results, against mpmath (Sondow's
# 2q form, which has no mpmath closed form, against the series route): each
# meets the request, and its claim covers its error
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
    ("gamma1-fourier-3/8", lambda c: gamma1_fourier(mpf(3) / 8, c),
     lambda: mp.stieltjes(1, mpf(3) / 8)),
    ("zeta-prime0-fourier-3/8",
     lambda c: zeta_prime0(mpf(3) / 8, "fourier", c),
     lambda: mp.zeta(0, mpf(3) / 8, 1)),
    ("zeta-doubleprime0-fourier-3/8",
     lambda c: zeta_doubleprime0(mpf(3) / 8, "fourier", c),
     lambda: mp.zeta(0, mpf(3) / 8, 2)),
    ("zeta-fourier--5/4-3/8",
     lambda c: zeta_fourier(mpf(-5) / 4, mpf(3) / 8, c),
     lambda: mp.zeta(mpf(-5) / 4, mpf(3) / 8)),
    ("sondow-2q-1/3", lambda c: sondow_gamma(Fraction(1, 3), c, route="2q"),
     lambda: sondow_gamma(Fraction(1, 3),
                          PrecisionConfig(digits=mp.dps)).value),
]


@pytest.mark.parametrize("label,route,exact", _OSC_ROUTES,
                         ids=[r[0] for r in _OSC_ROUTES])
def test_oscillatory_route_claims_cover_error(label, route, exact):
    for digits in (20, 30, 50):
        assert_claim(route(PrecisionConfig(digits=digits)), exact, digits)


# the oscillatory routes at small x, at 10 digits: each
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
    assert_claim(route(x, PrecisionConfig(digits=10)), lambda: exact(x), 10)


class TestOscillatorySum:
    def test_rejects_x_below_one(self, cfg20):
        with pytest.raises(DomainError):
            sum_oscillatory([1], 1, mpf(1) / 2, "sin", cfg20)

    def test_sine_sum_gives_log_gamma(self, cfg20):
        # Bourguet: sum_n (1/n) int sin(2 pi n t)/(x+t) dt is pi times the
        # remainder of log Gamma(x) after its Stirling part
        x = mpf(3) / 2
        res = sum_oscillatory([1], 1, x, "sin", cfg20)
        assert_claim(res, lambda: mp.pi * (
            mp.loggamma(x) - mp.log(2 * mp.pi) / 2
            - (x - mpf(1) / 2) * mp.log(x) + x), 20)

    def test_log_polynomial_cosine_sum_gives_gamma1(self, cfg20):
        # Briggs with P = L: gamma_1(x) = L/(2x) - L^2/2 + 2 * sum
        x = mpf(3) / 2

        def closed():
            L = mp.log(x)
            return (mp.stieltjes(1, x) - L / (2 * x) + L ** 2 / 2) / 2

        assert_claim(sum_oscillatory([0, 1], 1, x, "cos", cfg20), closed, 20)

    def test_is_one_adaptive_integral(self, cfg20, monkeypatch):
        # the n-sum is summed under one rotated integral on adaptive
        # panels, whose result is the kernel's
        calls = record_results(monkeypatch, gauss, "integrate_analytic")
        res = sum_oscillatory([1], 2, 1, "cos", cfg20)
        assert len(calls) == 1 and calls[0] is res

    def test_large_s_is_unconverged_not_wrong(self, cfg20):
        # |(1 + iu)^-s| is a peak of width 1/sqrt(s); unscaled, the first
        # levels missed it, agreed on zero and claimed 2e-50 for a sum of
        # 1/4 at s = 1e100
        s = mpf(10) ** 100
        res = sum_oscillatory([1], s, 1, "cos", cfg20)
        assert not res.converged
        assert_covers(res, lambda: (mp.zeta(s) - mpf(1) / 2 - 1 / (s - 1)) / 2)


def _peak(c, half_width, height):
    # |exp(-w^2)| = exp(Im(w)^2 - Re(w)^2), w = (z - 0.3) / 10^-3, on the
    # ellipse: |Im z| <= its half-height, |Re z - 0.3| >= its gap to 0.3
    gap = max(0.0, 0.3 - (c + half_width), (c - half_width) - 0.3)
    return (height / 1e-3) ** 2 - (gap / 1e-3) ** 2


# the parent rule's evaluations at 20 and 100 digits: Kolbig's psi sin took
# 281 and 1,353, the oscillatory sums 561 and 2,705
_KOLBIG_EVALS = {20: 281 // 5, 100: 1353 // 5}
_OSCILLATORY_EVALS = {20: 561 // 3, 100: 2705 // 3}


class TestAnalyticQuadrature:
    def test_narrow_peak_is_right_or_unconverged(self, cfg20):
        # tanh-sinh levels that both miss the peak agree on 7e-58 with
        # converged: true; panels split where the ellipse bound is large
        res = integrate_analytic(
            lambda t: mp.exp(-((t - mpf("0.3")) / mpf("1e-3")) ** 2),
            0, 1, _peak, cfg20)

        def exact():
            d = mpf("1e-3")
            return d * mp.sqrt(mp.pi) / 2 * (mp.erf(mpf("0.7") / d)
                                             + mp.erf(mpf("0.3") / d))

        if res.converged:
            assert_claim(res, exact, 20)
        else:
            assert_covers(res, exact)

    @pytest.mark.parametrize("digits", [20, 100])
    def test_kolbig_integral_claim_and_evaluations(self, digits):
        res = kolbig_check(PrecisionConfig(digits=digits))[2]
        assert_claim(res, _kolbig_closed_form, digits)
        assert res.terms_used <= _KOLBIG_EVALS[digits]

    @pytest.mark.parametrize("digits", [20, 100])
    @pytest.mark.parametrize("label,route,exact", [
        ("briggs", lambda c: briggs_gamma(0, 1, c), lambda: mp.stieltjes(0, 1)),
        ("poisson", lambda c: poisson_zeta(3, mpf(3) / 2, c),
         lambda: mp.zeta(3, mpf(3) / 2)),
        ("bourguet", lambda c: bourguet_log_gamma(mpf(5) / 2, c),
         lambda: mp.loggamma(mpf(5) / 2))], ids=["briggs", "poisson",
                                                 "bourguet"])
    def test_oscillatory_evaluations(self, label, route, exact, digits):
        res = route(PrecisionConfig(digits=digits))
        assert_claim(res, exact, digits)
        assert res.terms_used <= _OSCILLATORY_EVALS[digits]

    @pytest.mark.parametrize("x", [mpf(3) / 2, 1])
    def test_poisson_at_s_1e4(self, x, cfg20):
        # the panels follow the peak of width x/sqrt(s) within the node
        # budget, about 0.2 s at x = 1 on a 2-core machine; at x = 3/2 the
        # whole sum lies below 1.5^-10000, and the first panels say so
        start = time.perf_counter()
        res = poisson_zeta(10 ** 4, x, cfg20)
        assert time.perf_counter() - start < 20
        assert res.terms_used <= gauss.GL_BUDGET
        assert_claim(res, lambda: mp.zeta(10 ** 4, x), 20)

    def test_rejects_s_below_one(self, cfg20):
        with pytest.raises(DomainError):
            sum_oscillatory([1], mpf(1) / 2, 1, "sin", cfg20)

    def test_nodes_integrate_polynomials_exactly(self):
        # n Gauss-Legendre nodes integrate t^k over [-1, 1] exactly for
        # k < 2n
        prec = PrecisionConfig(digits=20).working_bits
        nodes = gauss._gl_nodes(prec)
        with mp.workprec(prec):
            for k in range(0, 4 * len(nodes), 2):
                total = 2 * mp.fsum(w * x ** k for x, w in nodes)
                assert abs(total - mpf(2) / (k + 1)) <= mpf(2) ** (8 - prec)

    def test_warm_calls_equal_cold_calls(self, cfg20, cfg30):
        # the node tables change no bit of any result, whatever ran
        # between, and stay within their bound
        def bits(res):
            return res.value._mpf_, res.err_estimate._mpf_, res.terms_used

        calls = [lambda: briggs_gamma(1, mpf(3) / 2, cfg20),
                 lambda: kolbig_check(cfg30)[2],
                 lambda: poisson_zeta(mpf(5) / 2, 2, cfg20)]
        cold = []
        for call in calls:
            gauss._gl_nodes.cache_clear()
            cold.append(bits(call()))
        for digits in range(10, 10 + 2 * gauss.GL_TABLES):
            gauss._gl_nodes(PrecisionConfig(digits=digits).working_bits)
        assert gauss._gl_nodes.cache_info().currsize == gauss.GL_TABLES
        assert [bits(call()) for call in calls] == cold
        assert [bits(call()) for call in reversed(calls)] == cold[::-1]


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
