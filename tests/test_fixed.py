"""The fixed-point rule of stieltjes.fixed against exact rationals.

A value held as an integer a at 2^-W within ea units is any rational
(a + t ea) 2^-W with |t| <= 1; each draw takes t at an end of that range or
anywhere inside it, and checks that the exact result of the same operation
on those rationals lies within the bound that the module gives.  Integers
and error bounds are drawn with magnitudes from 2^-40 to 2^40 times 2^W.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath.libmp import round_down, round_up

from stieltjes import fixed

WS = st.integers(40, 256)
T = st.one_of(st.sampled_from([Fraction(-1), Fraction(1)]),
              st.fractions(-1, 1, max_denominator=1 << 30))


def _scaled(W, signed=True):
    """An integer of magnitude up to 2^k 2^W, k in [-40, 40]."""
    top = st.integers(-40, 40).map(lambda k: 1 << (W + k))
    low = -1 if signed else 0
    return top.flatmap(lambda m: st.integers(low * m, m))


@st.composite
def held(draw, W):
    """(a, ea, the value as a rational in units of 2^-W)."""
    a = draw(_scaled(W))
    ea = draw(st.one_of(st.integers(0, 4), _scaled(W, signed=False)))
    return a, ea, a + draw(T) * ea


def _within(exact, p, bound):
    """|exact - p| <= bound, all in units of 2^-W."""
    assert abs(exact - p) <= bound


@settings(max_examples=300)
@given(data=st.data(), W=WS)
def test_product_within_the_rule(data, W):
    a, ea, va = data.draw(held(W))
    b, eb, vb = data.draw(held(W))
    p, e = fixed.mul(a, ea, b, eb, W)
    assert e == fixed.err(a, ea, b, eb, W)
    _within(va * vb / (1 << W), p, e)


@settings(max_examples=300)
@given(data=st.data(), W=WS, sh=st.integers(40, 300))
def test_product_at_another_scale(data, W, sh):
    # b at 2^-sh: a b >> sh keeps a's scale, as the EM corrections use it
    a, ea, va = data.draw(held(W))
    b, eb, vb = data.draw(held(sh))
    p, e = fixed.mul(a, ea, b, eb, sh)
    _within(va * vb / (1 << sh), p, e)


@settings(max_examples=150)
@given(data=st.data(), W=WS, deg=st.integers(0, 12))
def test_horner_within_its_bound(data, W, deg):
    cs = data.draw(st.lists(_scaled(W), min_size=deg + 1, max_size=deg + 1))
    ec = data.draw(st.one_of(st.integers(0, 4), _scaled(W, signed=False)))
    x, ex, vx = data.draw(held(W))
    p, e = fixed.horner(cs, ec, x, ex, W)
    one = Fraction(1 << W)
    exact = sum((c + data.draw(T) * ec) * (vx / one) ** d
                for d, c in enumerate(cs))
    _within(exact, p, e)


@settings(max_examples=150)
@given(data=st.data(), W=WS, n=st.integers(0, 12))
def test_powers_within_their_bounds(data, W, n):
    x, ex, vx = data.draw(held(W))
    out = fixed.powers(x, ex, n, W)
    assert len(out) == n + 1 and out[0] == (1 << W, 0)
    for d, (p, e) in enumerate(out[1:], 1):
        # each power is the rule's product of the one before and x
        assert (p, e) == fixed.mul(*out[d - 1], x, ex, W)
        _within(vx ** d / Fraction(1 << W) ** (d - 1), p, e)


@settings(max_examples=200)
@given(W=WS, data=st.data())
def test_corollary_for_values_at_most_one(W, data):
    # |a|, |b| <= 2^W and ea eb <= 2^W: the rule's bound, which
    # test_product_within_the_rule checks, is at most ea + eb + 2
    one = 1 << W
    value = st.one_of(st.sampled_from([one, -one]), st.integers(-one, one))
    a, b = data.draw(value), data.draw(value)
    ea = data.draw(st.integers(0, one))
    eb = data.draw(st.integers(0, one // max(ea, 1)))
    assert fixed.err(a, ea, b, eb, W) <= ea + eb + 2


@settings(max_examples=150)
@given(W=st.integers(40, 120), e=st.integers(0, 8), n=st.integers(1, 12),
       data=st.data())
def test_powers_corollary(W, e, n, data):
    # the d-th power of a value <= 1 within e, by d products, within d (e + 2)
    one = 1 << W
    x = data.draw(st.one_of(st.sampled_from([one, -one]),
                            st.integers(-one, one)))
    for d, (p, ep) in enumerate(fixed.powers(x, e, n, W)):
        assert ep <= d * (e + 2)


@settings(max_examples=300)
@given(prec=st.integers(8, 300), rnd=st.sampled_from([round_down, round_up]),
       parts=st.lists(st.tuples(st.integers(-(1 << 340), 1 << 340),
                                st.integers(-300, 300)),
                      min_size=1, max_size=4))
def test_meet_rounds_once(prec, rnd, parts):
    exact = sum(Fraction(m) * Fraction(2) ** e for m, e in parts)
    sign, man, exp, bc = fixed.meet(parts, prec, rnd)
    got = Fraction(-man if sign else man) * Fraction(2) ** exp
    if not exact:
        assert not got
        return
    assert (got < 0) == (exact < 0)
    # one rounding to prec bits, toward zero or away from it
    gap = abs(exact) - abs(got) if rnd == round_down else abs(got) - abs(exact)
    assert 0 <= gap < Fraction(2) ** (exp + bc - prec)
