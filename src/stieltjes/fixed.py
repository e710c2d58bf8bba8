"""Fixed-point arithmetic on Python integers, with one rounding rule.

The integer kernels (the trigonometric kernel, the Euler-Maclaurin engine
and Hasse's tail) hold a real v as an integer a at 2^-W within ea units,
|v - a 2^-W| <= ea 2^-W; sums are exact and add their bounds.  mpmath's
log, exp, integer power, trigonometric functions and Bernoulli numbers
enter as good to a few ulps.

The rule.  For a within ea and b within eb, a b is off the product of the
values by at most |a| eb + |b| ea + ea eb units of 2^-2W, and a b >> W
truncates by less than one more unit of 2^-W.  So a b >> W is within
(|a| eb + |b| ea + ea eb) / 2^W + 2 units, the quotient rounded down and
the 2 covering that rounding and the truncation (:func:`err`).  With b at
2^-sh and a b >> sh, 2^sh takes the place of 2^W.

The corollary for values <= 1, which hot loops use as an a-priori bound:
for |a|, |b| <= 2^W and ea eb <= 2^W the rule gives at most ea + eb + 2,
so the d-th power of such a value within e, by d products from 2^W
(:func:`powers`), is within d (e + 2).
"""

from mpmath.libmp import from_man_exp


def err(a: int, ea: int, b: int, eb: int, W: int) -> int:
    """The rule's bound on a b >> W, for a within ea and b within eb."""
    return ((abs(a) * eb + abs(b) * ea + ea * eb) >> W) + 2


def mul(a: int, ea: int, b: int, eb: int, W: int) -> tuple[int, int]:
    """(a b >> W, its bound by the rule)."""
    return (a * b) >> W, err(a, ea, b, eb, W)


def horner(cs, ec: int, x: int, ex: int, W: int) -> tuple[int, int]:
    """(sum_d cs[d] x^d, its bound) for every cs[d] within ec, x within ex."""
    p, ep = cs[-1], ec
    for c in reversed(cs[:-1]):
        p, ep = ((p * x) >> W) + c, err(p, ep, x, ex, W) + ec
    return p, ep


def powers(x: int, ex: int, n: int, W: int) -> list:
    """[(x^d, its bound) for d <= n], each x times the one before."""
    out = [(1 << W, 0)]
    for _ in range(n):
        out.append(mul(*out[-1], x, ex, W))
    return out


def meet(parts, prec: int, rnd) -> tuple:
    """sum m 2^e over the (m, e) parts, rounded once to a raw mpf."""
    low = min(e for _, e in parts)
    return from_man_exp(sum(m << (e - low) for m, e in parts), low, prec, rnd)
