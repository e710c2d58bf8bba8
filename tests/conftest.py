import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp, mpf

from stieltjes.combinatorics import bell_complete
from stieltjes.core import PrecisionConfig

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


def assert_claim(res, reference, digits):
    """actual <= err_estimate <= 10^-digits max(1, |ref|), and converged,
    with reference() evaluated at 40 digits beyond the request, or beyond
    the claim where that is finer: a claim of 1e-95 relative at 50 digits
    is checked against a reference good to about 135 digits."""
    finer = digits
    if res.value and res.err_estimate:
        finer = max(digits, int(mp.log10(abs(res.value) / res.err_estimate)))
    with mp.workdps(finer + 40):
        ref = reference()
        actual = abs(res.value - ref)
        assert actual <= res.err_estimate, (
            f"actual {mp.nstr(actual, 3)} > claimed "
            f"{mp.nstr(res.err_estimate, 3)}")
        assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
        assert res.converged


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


def harmonic(n, m=1, t=1):
    """The generalized harmonic number sum_{k<n} 1/(k+t)^m."""
    return mp.fsum((k + mpf(t)) ** -m for k in range(n))


def bell_harmonic(k, n):
    """Y_k(H_n, -1! H_n^(2), ..., (-1)^(k-1) (k-1)! H_n^(k)): the k-th
    derivative at 0 of Gamma(s+n+1)/Gamma(s+1), over n!; a reference for
    the Bell route's weights."""
    return bell_complete([(-1) ** i * mp.factorial(i) * harmonic(n, i + 1)
                          for i in range(k)])
