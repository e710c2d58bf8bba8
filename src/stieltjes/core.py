"""Precision policy, result containers and error types shared by every module.

All scalars are mpmath ``mpf`` values.  Precision is not attached to each
number; instead every kernel runs inside an explicit working-precision
context derived from a :class:`PrecisionConfig` (decimal digits plus guard
bits), and returns values rounded at that precision.  Mixing values produced
at different precisions is safe: mpmath computes at the active context
precision, which callers set to the maximum they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

_BITS_PER_DIGIT = math.log2(10)


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
    """Evaluation budget: target digits, guard bits, term cap, tolerance.

    ``tolerance`` defaults to 10**(-digits) when left unset.  ``guard_bits``
    is the base padding; kernels that suffer cancellation add their own on
    top (the Hasse head adds one bit per outer term, for instance).
    """

    digits: int = 30
    guard_bits: int = 64
    max_terms: int = 10 ** 6
    tolerance: Optional[mpf] = None

    def __post_init__(self):
        if self.digits < 10:
            raise ValueError("digits must be >= 10")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be >= 0")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    @property
    def working_bits(self) -> int:
        return max(64, int(self.digits * _BITS_PER_DIGIT) + self.guard_bits)

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
    """Outcome of a summation or quadrature kernel.

    ``converged`` is True only when ``err_estimate`` met the tolerance the
    kernel was run with.  err_estimate is a heuristic upper bound (last
    term/difference magnitude times a safety factor of 4), never rigorous.
    """

    value: mpf
    err_estimate: mpf
    terms_used: int
    converged: bool

    def __float__(self):
        return float(self.value)


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


def as_real(value) -> mpf:
    """Convert int/float/str/Fraction to mpf at the active precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)
