import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp, mpf

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


def assert_close(a, b, tol, label=""):
    d = abs(mpf(a) - mpf(b))
    assert d <= mpf(tol), f"{label}: |{a} - {b}| = {d} > {tol}"
