"""The one convergence rule: err_estimate <= tol * max(1, |value|), the
request every kernel runs under; the one identity verdict,
|lhs - rhs| <= 2 tol max(1, |lhs|, |rhs|); and the interval glue that
combines kernel results."""

import copy
import pickle

import pytest
from mpmath import iv, mp, mpc, mpf

from stieltjes.core import (IdentityReport, PrecisionConfig, SeriesResult,
                            combine)

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


class TestIdentityVerdict:
    @pytest.mark.parametrize("value", [mpf("0.5"), mpf(-300), mpf(300)])
    @pytest.mark.parametrize("gap,passed", [("1.9", True), ("2.1", False)])
    def test_sides_agree_within_twice_the_request(self, value, gap, passed):
        apart = mpf(gap) * TOL * max(1, abs(value))
        report = IdentityReport.build("id", value, value + apart, TOL)
        assert report.passed is passed

    @pytest.mark.parametrize("lhs,rhs,passed", [
        ("1000", "999.999999999999999985", True),
        ("1e-3", "-1000", False), ("-1000", "1e-3", False)])
    def test_bound_scales_with_the_larger_side(self, lhs, rhs, passed):
        # the sides are parsed at the fixture's 400 bits, which keep the
        # 1.5e-17 gap that 53 bits would round away
        report = IdentityReport.build("id", mpf(lhs), mpf(rhs), TOL)
        assert report.tolerance == 2 * TOL * 1000
        assert report.as_dict()["tolerance"] == mp.nstr(2 * TOL * 1000, 6)
        assert report.passed is passed

    def test_result_sides_are_unwrapped(self):
        result = SeriesResult(mpf(2), mpf("1e-25"), 7, TOL)
        report = IdentityReport.build("id", result, mpf(2), TOL, x=mpf(3),
                                      meta="m")
        assert (report.lhs, report.rhs, report.residual) == (2, 2, 0)
        assert report.passed and report.tolerance == 4 * TOL
        assert (report.x, report.meta) == (3, "m")

    def test_checks_every_requested_digit(self):
        # sides 1e-15 apart passed a row's fixed 10^-12 to 10^-4; at 20
        # digits they fail
        tol = PrecisionConfig(digits=20).tol()
        report = IdentityReport.build("id", mp.euler,
                                      mp.euler + mpf("1e-15"), tol)
        assert report.residual <= mpf("1e-12")
        assert not report.passed


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


class TestCombine:
    CFG = PrecisionConfig(digits=20)

    def test_infinite_claim_keeps_the_point_value(self):
        tol = self.CFG.tol()
        with self.CFG.workprec(40):
            res = combine(lambda a, b: 2 * a + b,
                          SeriesResult(mpf(3), mp.inf, 7, tol),
                          SeriesResult(mpf(1), mpf("1e-30"), 2, tol), tol=tol)
        assert res.value == 7 and mp.isinf(res.err_estimate)
        assert res.terms_used == 9 and not res.converged

    def test_complex_result_is_bounded_by_its_modulus(self):
        tol = self.CFG.tol()
        with self.CFG.workprec(40):
            res = combine(lambda a: a * iv.mpc(3, 4),
                          SeriesResult(mpf(2), mpf("1e-30"), 1, tol), tol=tol)
        assert isinstance(res.value, mpc) and res.value == mpc(6, 8)
        # the box [6 +- 3e-30] + [8 +- 4e-30] i reaches 5e-30 from its centre
        assert mpf("5e-30") <= res.err_estimate <= mpf("5.001e-30")

    @pytest.mark.parametrize("ambient", [400, 53])
    def test_glue_runs_at_the_working_precision(self, ambient):
        # the autouse fixture leaves mp at 400 bits and iv at its own 53
        bits = self.CFG.working_bits + 40
        outer = iv.prec
        with mp.workprec(ambient):
            with self.CFG.workprec(40):
                assert iv.prec == mp.prec == bits
                res = combine(lambda one: one * iv.pi,
                              SeriesResult(mpf(1), mpf(0), 1, mpf(1)),
                              tol=mpf(1))
        assert iv.prec == outer
        # pi rounded outward at the working precision, not at 53 or 400 bits
        assert mpf(2) ** -(bits + 1) <= res.err_estimate <= mpf(2) ** -(bits - 2)
        assert abs(res.value - mp.pi) <= res.err_estimate
