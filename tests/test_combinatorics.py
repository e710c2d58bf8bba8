import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stieltjes.gammafuncs import digamma
from stieltjes.hurwitz import _bell_complete as bell_complete, _poly_delta

from conftest import assert_close, bell_harmonic, harmonic


def bell_partition_sum(xs):
    """Y_r(x_1..x_r) by its definition: r!/(k_1!..k_r!) prod (x_i/i!)^k_i
    summed over k_1 + 2 k_2 + ... + r k_r = r, at exponential cost."""
    r = len(xs)
    xs = [mpf(v) for v in xs]
    total = mpf(0)

    def rec(i, remaining, coeff_den, prod):
        nonlocal total
        if i > r:
            if remaining == 0:
                total += mp.factorial(r) / coeff_den * prod
            return
        for k in range(remaining // i + 1):
            rec(i + 1, remaining - i * k, coeff_den * mp.factorial(k),
                prod * (xs[i - 1] / mp.factorial(i)) ** k)

    rec(1, r, mpf(1), mpf(1))
    return total


class TestBinomial:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_alternating_sum_vanishes(self, n):
        # Delta_n[y^r](x) = sum_v (-1)^v C(n,v) (x+v)^r vanishes for r < n,
        # which ends Hasse's tail at i = r; exact at this dyadic x
        for r in range(n):
            assert _poly_delta(n, r, mpf(3) / 8) == 0


# the harmonic numbers and Bell weights are the tests' own references: these
# check them
class TestHarmonic:
    def test_classic(self):
        assert_close(harmonic(3, 1, 1), mpf(11) / 6, mpf(10) ** -25, "H_3")

    def test_empty(self):
        assert harmonic(0, 4, mpf("0.7")) == 0

    def test_digamma_relation(self, cfg30):
        # psi(n+t) - psi(t) = H_n^(1)(t)
        n = 10
        lhs = digamma(n + 1, cfg30).value - digamma(1, cfg30).value
        assert_close(lhs, harmonic(n, 1, 1), mpf(10) ** -25, "psi relation")

    def test_offset_recurrence(self):
        for n in (0, 1, 5):
            for t in (mpf("0.25"), mpf(2)):
                d = harmonic(n + 1, 1, t) - harmonic(n, 1, t)
                assert_close(d, 1 / (n + t), mpf(10) ** -25, "increment")


class TestBellComplete:
    def test_order_zero(self):
        assert bell_complete([]) == 1

    def test_order_two(self):
        # Y_2(x1, x2) = x1^2 + x2
        assert_close(bell_complete([2, 3]), 7, mpf(10) ** -25, "Y_2(2,3)")

    def test_order_three_ones(self):
        # Y_3(1,1,1) = 1 + 3 + 1
        assert_close(bell_complete([1, 1, 1]), 5, mpf(10) ** -25, "Y_3")

    @pytest.mark.parametrize("r", range(1, 9))
    def test_recurrence_matches_partition_sum(self, r):
        rng = random.Random(1234 + r)
        xs = [mpf(rng.randint(-8, 8)) / rng.randint(1, 6) for _ in range(r)]
        assert_close(bell_complete(xs), bell_partition_sum(xs),
                     mpf(10) ** -20, f"Y_{r}")


class TestBellHarmonic:
    def test_zero_order(self):
        assert bell_harmonic(0, 5) == 1

    def test_first_order(self):
        assert_close(bell_harmonic(1, 2), mpf(3) / 2, mpf(10) ** -25,
                     "Y_1 = H_2")

    def test_second_order(self):
        # Y_2(H_2, -H_2^(2)) = (3/2)^2 - 5/4
        assert_close(bell_harmonic(2, 2), 1, mpf(10) ** -25, "Y_2")

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 4), (4, 6)])
    def test_matches_gamma_ratio_derivative(self, k, n):
        # n! * Y_k equals the k-th derivative of Gamma(s+n+1)/Gamma(s+1) at 0
        with mp.workprec(280):
            fd = mp.diff(lambda s: mp.gamma(s + n + 1) / mp.gamma(s + 1),
                         0, k)
            bh = bell_harmonic(k, n) * mp.factorial(n)
            assert abs(fd - bh) < mpf(10) ** -20
