"""Precision policy, result containers and error types shared by every module.

All scalars are mpmath ``mpf`` values (``mpc`` where a value is complex).
Precision is not attached to each number; instead every kernel runs inside
an explicit working-precision context derived from a
:class:`PrecisionConfig` (decimal digits plus guard bits), and returns
values rounded at that precision.  Mixing values produced
at different precisions is safe: mpmath computes at the active context
precision, which callers set to the maximum they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from mpmath import mp, mpc, mpf

_BITS_PER_DIGIT = math.log2(10)
_GUARD_BITS = 64


class DomainError(ValueError):
    """Argument outside the domain of the requested operation."""


class PoleError(DomainError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""


class NonConvergence(ArithmeticError):
    """A series or quadrature failed to meet its tolerance within its budget."""


class PrecisionError(ArithmeticError):
    """Requested digits are unreachable within the configured term budget."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Evaluation budget: target digits, term cap, tolerance.

    ``tolerance`` defaults to 10**(-digits) when left unset.  The working
    precision carries 64 guard bits; kernels that suffer cancellation add
    their own on top (the Hasse head adds one bit per outer term, for
    instance).
    """

    digits: int = 30
    max_terms: int = 10 ** 6
    tolerance: Optional[mpf] = None

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    @property
    def working_bits(self) -> int:
        return max(64, int(self.digits * _BITS_PER_DIGIT) + _GUARD_BITS)

    def tol(self) -> mpf:
        if self.tolerance is not None:
            return mpf(self.tolerance)
        return mpf(10) ** (-self.digits)

    def workprec(self, extra_bits: int = 0):
        """Context manager setting the working precision for a kernel."""
        return mp.workprec(self.working_bits + extra_bits)


DEFAULT_CFG = PrecisionConfig()


@dataclass
class SeriesResult:
    """A value, the error its route claims for it, and the request it met.

    Every evaluator whose result is printed returns one.  ``err_estimate``
    is the route's own claim on |value - exact|, ``terms_used`` the terms
    or panels it summed, and ``tol`` the tolerance it was computed for
    (10^-digits unless the caller set one).  The verdict is decided here
    and nowhere else: the result has converged when

        err_estimate <= tol * max(1, |value|),

    which is never the case for an infinite or NaN estimate or value.  A
    complex value is judged by its modulus.
    """

    value: Union[mpf, mpc]
    err_estimate: mpf
    terms_used: int
    tol: mpf

    @property
    def converged(self) -> bool:
        if not (mp.isfinite(self.err_estimate) and mp.isfinite(self.value)):
            return False
        return bool(self.err_estimate <= self.tol * max(1, abs(self.value)))


@dataclass
class IdentityReport:
    """Machine-readable outcome of one identity check."""

    identity: str
    lhs: mpf
    rhs: mpf
    residual: mpf
    tolerance: mpf
    passed: bool
    x: Optional[mpf] = None
    meta: str = ""

    @classmethod
    def build(cls, identity, lhs, rhs, tolerance, x=None, meta=""):
        # residual at high fixed precision: operands carry their full
        # mantissas, so the ambient context must not truncate the difference
        with mp.workprec(max(mp.prec, 768)):
            lhs, rhs = mpf(lhs), mpf(rhs)
            residual = abs(lhs - rhs)
            passed = bool(residual <= mpf(tolerance))
        return cls(identity=identity, lhs=lhs, rhs=rhs, residual=residual,
                   tolerance=mpf(tolerance), passed=passed,
                   x=None if x is None else mpf(x), meta=meta)

    def as_dict(self):
        d = {
            "identity": self.identity,
            "lhs": mp.nstr(self.lhs, 20),
            "rhs": mp.nstr(self.rhs, 20),
            "residual": mp.nstr(self.residual, 6),
            "tolerance": mp.nstr(self.tolerance, 6),
            "pass": self.passed,
        }
        if self.x is not None:
            d["x"] = mp.nstr(self.x, 12)
        if self.meta:
            d["meta"] = self.meta
        return d


def shift_up(x, term, floor=1, limit=None):
    """(x + k, sum_{j<k} term(x + j), k) for the fewest k >= 0 with
    x + k >= floor, but k <= ``limit`` when one is given: how the routes
    that need x >= floor reach smaller x by their recurrences."""
    shift = mpf(0)
    k = 0
    while x < floor and (limit is None or k < limit):
        shift += term(x)
        x += 1
        k += 1
    return x, shift, k


def as_real(value) -> mpf:
    """Convert int/float/str/Fraction to mpf at the active precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)
