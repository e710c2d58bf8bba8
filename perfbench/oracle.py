"""Reference values from mpmath's own built-ins and the check against them.

mpmath's ``stieltjes``, ``zeta``, ``loggamma`` and ``psi`` share no code
with the stieltjes package, so they serve as independent oracles.  Every
reference is computed at digits + 20, after the timed phase.

An output passes when

    |printed - ref| <= 10^-digits * max(1, |ref|) + half_ulp(printed),

where half_ulp is half a unit in the last printed digit: the CLI prints
``digits`` significant digits, so a correctly rounded value of magnitude
above 1 can sit that far from the truth.  An output *overclaims* when its
actual error, beyond that print rounding, exceeds the error estimate it
reported.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpf

GUARD_DIGITS = 20


def parse(text):
    """Decimal string or exact 'p/q' -> mpf at the active precision."""
    if "/" in text:
        f = Fraction(text)
        return mpf(f.numerator) / f.denominator
    return mpf(text)


def half_ulp(text):
    """Half a unit in the last digit of a printed decimal, as an mpf."""
    exponent = Decimal(text.strip()).as_tuple().exponent
    return mpf(10) ** exponent / 2


def cli_reference(quantity, params, digits):
    with mp.workdps(digits + GUARD_DIGITS):
        x = parse(params["x"]) if "x" in params else mpf(1)
        if quantity == "gamma_m":
            return +mp.stieltjes(params["m"], x)
        if quantity == "zeta":
            return +mp.zeta(parse(params["s"]), x, params.get("deriv", 0))
        if quantity == "zeta_prime0":
            return +mp.zeta(0, x, 1)
        if quantity == "zeta_doubleprime0":
            return +mp.zeta(0, x, 2)
        if quantity == "digamma":
            return +mp.psi(0, x)
        if quantity == "log_gamma":
            return +mp.loggamma(x)
    raise ValueError(f"no oracle for {quantity!r}")


def trig_reference(family, mode, x_text, s_text, digits):
    """Closed form of sum_n c_n trig(2 pi n x), or of the odd-multiple
    sum_n c_n sin((2n+1) pi x) for the log(1+1/n) family."""
    with mp.workdps(digits + GUARD_DIGITS):
        x = parse(x_text)
        if family == "recip":  # sawtooth and log-sine
            if mode == "sin":
                return mp.pi * (mpf(1) / 2 - x)
            return -mp.log(2 * mp.sinpi(x))
        if family == "logn" and mode == "sin":  # Kummer's series
            return mp.pi * (mp.loggamma(x) - mp.log(mp.pi / mp.sinpi(x)) / 2
                            - (mp.euler + mp.log(2 * mp.pi)) * (mpf(1) / 2 - x))
        if family == "log1p" and mode == "sin":
            sx = mp.sinpi(x)
            return -(mp.psi(0, x) * sx + mp.pi / 2 * mp.cospi(x)
                     + (mp.euler + mp.log(2 * mp.pi)) * sx)
        if family == "power":  # Hurwitz's formula, coefficient (2 pi n)^(s-1)
            s = parse(s_text)
            g4 = 4 * mp.gamma(1 - s)
            if mode == "cos":
                return (mp.zeta(s, x) + mp.zeta(s, 1 - x)) / (g4 * mp.sinpi(s / 2))
            return (mp.zeta(s, x) - mp.zeta(s, 1 - x)) / (g4 * mp.cospi(s / 2))
    raise ValueError(f"no oracle for {family}/{mode}")


def judge(printed, ref, digits, claimed=None):
    """(ok, overclaim) for one printed value against its reference.

    ``claimed`` is the reported error estimate (string or mpf) or None when
    the output claims none; overclaim is then None.
    """
    with mp.workdps(digits + GUARD_DIGITS):
        value = mpf(printed)
        rounding = half_ulp(printed)
        actual = abs(value - ref)
        ok = actual <= mpf(10) ** -digits * max(1, abs(ref)) + rounding
        overclaim = None
        if claimed is not None:
            overclaim = bool(actual > mpf(claimed) + rounding)
        return bool(ok), overclaim
