"""The one convergence rule: err_estimate <= tol * max(1, |value|), and
the request every kernel runs under."""

import copy
import pickle

import pytest
from mpmath import mp, mpc, mpf

from stieltjes.core import PrecisionConfig, SeriesResult

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


class TestPrecisionConfig:
    def test_fields_and_defaults(self):
        cfg = PrecisionConfig()
        assert (cfg.digits, cfg.tolerance) == (30, None)
        cfg = PrecisionConfig(25, tolerance=mpf("1e-20"))
        assert (cfg.digits, cfg.tolerance) == (25, mpf("1e-20"))

    def test_tolerance_is_keyword_only(self):
        # a caller that still passes a term budget second must fail, not
        # set a tolerance
        with pytest.raises(TypeError):
            PrecisionConfig(50, 7)

    def test_equal_by_value_and_hashable(self):
        a, b = PrecisionConfig(digits=20), PrecisionConfig(digits=20)
        assert a == b and hash(a) == hash(b) and a is not b
        assert len({a, b, PrecisionConfig(digits=21)}) == 2
        assert a != PrecisionConfig(digits=20, tolerance=mpf("1e-9"))
        assert a != (20, None)

    @pytest.mark.parametrize("cfg", [
        PrecisionConfig(), PrecisionConfig(50),
        PrecisionConfig(20, tolerance=mpf(10) ** -25)])
    def test_pickle_round_trip(self, cfg):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(cfg, protocol))
            assert back == cfg and hash(back) == hash(cfg)
            assert type(back) is PrecisionConfig
        assert copy.deepcopy(cfg) == cfg

    def test_immutable(self):
        cfg = PrecisionConfig(digits=20)
        with pytest.raises(AttributeError):
            cfg.digits = 40
        with pytest.raises(AttributeError):
            cfg.extra = 1
        with pytest.raises(AttributeError):
            del cfg.tolerance
        assert cfg.digits == 20

    @pytest.mark.parametrize("kwargs,message", [
        ({"digits": 9}, "digits"),
        ({"tolerance": mp.nan}, "tolerance"),
        ({"tolerance": mpf(0)}, "tolerance"),
        ({"tolerance": mpf(-1)}, "tolerance")])
    def test_invalid_fields_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PrecisionConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            PrecisionConfig().replace(**kwargs)

    def test_replace(self):
        cfg = PrecisionConfig(digits=20)
        tight = cfg.replace(tolerance=mpf(10) ** -30)
        assert tight == PrecisionConfig(20, tolerance=mpf(10) ** -30)
        assert cfg.tolerance is None  # the original is unchanged
        assert cfg.replace(digits=40).working_bits > cfg.working_bits
        assert cfg.replace() == cfg
        with pytest.raises(TypeError):
            cfg.replace(precision=10)
