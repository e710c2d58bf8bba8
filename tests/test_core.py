"""The one convergence rule: err_estimate <= tol * max(1, |value|)."""

import pytest
from mpmath import mp, mpc, mpf

from stieltjes.core import SeriesResult

TOL = mpf(10) ** -20


@pytest.mark.parametrize("value,err,converged", [
    (mpf("0.5"), mpf("0.9e-20"), True),      # |value| < 1: absolute
    (mpf("0.5"), mpf("1.1e-20"), False),
    (mpf(-300), mpf("2.9e-18"), True),       # |value| > 1: relative
    (mpf(-300), mpf("3.1e-18"), False),
    (mpf(0), mpf(0), True),
])
def test_scale_is_max_of_one_and_the_value(value, err, converged):
    assert SeriesResult(value, err, 1, TOL).converged is converged


@pytest.mark.parametrize("err", [mp.inf, mp.nan])
def test_infinite_or_nan_estimate_never_converges(err):
    assert SeriesResult(mpf(1), err, 1, TOL).converged is False
    assert SeriesResult(mp.inf, err, 1, TOL).converged is False


def test_infinite_or_nan_value_never_converges():
    for value in (mp.inf, mp.nan, mpc(1, mp.inf)):
        assert SeriesResult(value, mpf(0), 1, TOL).converged is False


def test_complex_value_is_judged_by_its_modulus():
    value = mpc(300, 400)  # |value| = 500
    assert SeriesResult(value, mpf("4.9e-18"), 1, TOL).converged is True
    assert SeriesResult(value, mpf("5.1e-18"), 1, TOL).converged is False
