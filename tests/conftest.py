from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp, mpf

from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import _bell_complete

# derandomized: Tier-1 runs the same draws every time
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cfg20():
    return PrecisionConfig(digits=20)


@pytest.fixture(scope="session")
def cfg30():
    return PrecisionConfig(digits=30)


@pytest.fixture(scope="session")
def cfg40():
    return PrecisionConfig(digits=40)


@pytest.fixture(autouse=True)
def _ambient_precision():
    # comparisons in tests run at a precision comfortably above every target
    with mp.workprec(400):
        yield


def record_results(monkeypatch, module, name):
    """Rebind module.name to a wrapper that keeps every result it returns;
    returns that list."""
    results = []
    inner = getattr(module, name)

    def record(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, record)
    return results


# every claim check, and those that needed the second stage; a rising
# second-stage count flags a reference that is too loose
CLAIM_CHECKS = {"all": 0, "second": 0}


def assert_covers(res, reference, digits=0):
    """|res.value - reference()| <= res.err_estimate; returns the reference.

    reference() is evaluated in two stages.  The first runs 20 digits past
    the claim, measured relative to |value| (or past ``digits`` where that
    is finer), which most of mpmath's functions meet in relative terms.
    Only on a miss is it evaluated again, at max(that, -log10 err) + 150
    digits, and decided there: mp.zeta at large s and x, for one, is good
    only in absolute terms.  A reference takes exact inputs (a Fraction, a
    binary float or mpf) and converts them inside, so that the second stage
    is not held back by an input rounded for the first.  A loose reference
    can hide an overclaim only by erring the same way as the kernel, which
    routes independent of mpmath's make unlikely."""
    err = res.err_estimate
    finer = digits
    if res.value and err and mp.isfinite(err):
        finer = max(digits, int(mp.log10(abs(res.value) / err)))
    CLAIM_CHECKS["all"] += 1
    with mp.workdps(finer + 20):
        ref = reference()
        actual = abs(res.value - ref)
    if not actual <= err:  # a NaN claim or value misses too
        CLAIM_CHECKS["second"] += 1
        absolute = int(-mp.log10(err)) if 0 < err < mp.inf else 0
        with mp.workdps(max(finer + 20, absolute) + 150):
            ref = reference()
            actual = abs(res.value - ref)
        assert actual <= err, (
            f"actual {mp.nstr(actual, 3)} > claimed {mp.nstr(err, 3)}")
    return ref


def assert_claim(res, reference, digits):
    """actual <= err_estimate <= 10^-digits max(1, |ref|), and converged,
    with the reference checked as ``assert_covers`` does."""
    ref = assert_covers(res, reference, digits)
    assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
    assert res.converged


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"claim checks: {CLAIM_CHECKS['all']}, "
                                f"second stage: {CLAIM_CHECKS['second']}")


def assert_close(a, b, tol, label=""):
    d = abs(mpf(a) - mpf(b))
    assert d <= mpf(tol), f"{label}: |{a} - {b}| = {d} > {tol}"


def sides(suite, identity):
    """The two sides of the catalogue row ``identity`` of ``suite``, each
    returning a bare value, called as f(*point, cfg)."""
    from stieltjes.core import SeriesResult
    from stieltjes.suites import CATALOGUE

    (row,) = [r for r in CATALOGUE[suite] if r.identity == identity]

    def value(f):
        def call(*args):
            v = f(*args)
            return v.value if isinstance(v, SeriesResult) else v
        return call

    return tuple(value(f) for f in row.check)


def exact(x):
    """x at the working precision from its exact value: a Fraction is
    divided out there, an mpf is kept as it is."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return x if isinstance(x, mpf) else mpf(x)


def zeta_ref(s, x, deriv=0):
    """zeta^(deriv)(s, x).  From x = 1e5 on from Hermite's integral,

        zeta(s, x) = x^-s/2 + x^(1-s)/(s-1)
                     + 2 int_0^inf Im((x - it)^-s) / (e^(2 pi t) - 1) dt,

    differentiated under the integral, where mp.zeta is slow or off: at
    negative s it takes time linear in x (1 s at s = -20.1, x = 1e5 and
    12 s at 1e6, 60 digits), and zeta(23.567, 8.4792e7) is off by 9e-30
    relative at 60 digits and 2e-44 at 200.  Below, mp.zeta, which is good
    in absolute terms there; or for |s| < 1e-30 its Taylor series at s = 0,
    because mp.zeta divides by zero at some tiny negative s (mpmath 1.3)."""
    s, x = exact(s), exact(x)
    if x < 1e5:
        if abs(s) < 1e-30:
            return mp.fsum(s ** k / mp.factorial(k) * mp.zeta(0, x, deriv + k)
                           for k in range(5))
        return mp.zeta(s, x, deriv)
    L = -mp.log(x)
    ends = L ** deriv * x ** -s / 2 + mp.fsum(
        mp.binomial(deriv, k) * L ** k * x ** (1 - s) * (-1) ** (deriv - k)
        * mp.factorial(deriv - k) / (s - 1) ** (deriv - k + 1)
        for k in range(deriv + 1))

    # mp.quad stops on an absolute error, so the integrand, near
    # -s t x^(-s-1) log(x)^deriv / (2 pi t), is scaled to about 1
    c = x ** (s + 1) / max(1, abs(L)) ** deriv

    def f(t):
        z = mp.mpc(x, -t)
        return (c * ((-mp.log(z)) ** deriv * z ** -s).imag
                / mp.expm1(2 * mp.pi * t))

    return ends + 2 * mp.quad(f, [0, mp.inf]) / c


def harmonic(n, m=1, t=1):
    """The generalized harmonic number sum_{k<n} 1/(k+t)^m."""
    return mp.fsum((k + mpf(t)) ** -m for k in range(n))


def bell_harmonic(k, n):
    """Y_k(H_n, -1! H_n^(2), ..., (-1)^(k-1) (k-1)! H_n^(k)): the k-th
    derivative at 0 of Gamma(s+n+1)/Gamma(s+1), over n!; a reference for
    the Bell route's weights."""
    return _bell_complete([(-1) ** i * mp.factorial(i) * harmonic(n, i + 1)
                           for i in range(k)])
