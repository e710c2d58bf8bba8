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
from fractions import Fraction
from typing import Optional, Union

from mpmath import mp, mpc, mpf

# the error types live in the package, whose import loads no mpmath
from . import DomainError, NonConvergence, PoleError, PrecisionError  # noqa: F401

_BITS_PER_DIGIT = math.log2(10)
_GUARD_BITS = 64


class PrecisionConfig:
    """Evaluation budget: target digits, term cap, tolerance.

    ``tolerance`` defaults to 10**(-digits) when left unset.  The working
    precision carries 64 guard bits; kernels that suffer cancellation add
    their own on top (the Hasse head adds one bit per outer term, for
    instance).  A config is immutable and compares, hashes and pickles by
    its three fields; :meth:`replace` makes a changed copy.
    """

    __slots__ = ("digits", "max_terms", "tolerance")

    def __init__(self, digits: int = 30, max_terms: int = 10 ** 6,
                 tolerance: Optional[mpf] = None):
        if digits < 10:
            raise ValueError("digits must be >= 10")
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if tolerance is not None and not tolerance > 0:
            raise ValueError("tolerance must be positive")
        for name, value in zip(self.__slots__, (digits, max_terms, tolerance)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionConfig is immutable; use replace()")

    def __delattr__(self, name):
        raise AttributeError("PrecisionConfig is immutable")

    def _fields(self):
        return self.digits, self.max_terms, self.tolerance

    def __eq__(self, other):
        if type(other) is not PrecisionConfig:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        # rebuilt through __init__: the default slot-state restore would
        # go through the refusing __setattr__
        return PrecisionConfig, self._fields()

    def __repr__(self):
        return ("PrecisionConfig(digits={!r}, max_terms={!r}, "
                "tolerance={!r})".format(*self._fields()))

    def replace(self, **changes) -> "PrecisionConfig":
        """A copy with the named fields changed, validated like a new one."""
        return PrecisionConfig(**{**dict(zip(self.__slots__, self._fields())),
                                  **changes})

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


class _Record:
    """Field-wise equality and repr for the plain result classes."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class SeriesResult(_Record):
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

    def __init__(self, value: Union[mpf, mpc], err_estimate: mpf,
                 terms_used: int, tol: mpf):
        self.value = value
        self.err_estimate = err_estimate
        self.terms_used = terms_used
        self.tol = tol

    @property
    def converged(self) -> bool:
        if not (mp.isfinite(self.err_estimate) and mp.isfinite(self.value)):
            return False
        return bool(self.err_estimate <= self.tol * max(1, abs(self.value)))


class IdentityReport(_Record):
    """Machine-readable outcome of one identity check."""

    def __init__(self, identity: str, lhs: mpf, rhs: mpf, residual: mpf,
                 tolerance: mpf, passed: bool, x: Optional[mpf] = None,
                 meta: str = ""):
        self.identity = identity
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.tolerance = tolerance
        self.passed = passed
        self.x = x
        self.meta = meta

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
