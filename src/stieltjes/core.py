"""Precision policy, result containers and error types shared by every module.

All scalars are mpmath ``mpf`` values (``mpc`` where a value is complex).
Precision is not attached to each number; instead every kernel runs inside
an explicit working-precision context derived from a
:class:`PrecisionConfig` (decimal digits plus guard bits), and returns
values rounded at that precision.  Mixing values produced
at different precisions is safe: mpmath computes at the active context
precision, which callers set to the maximum they need.

Kernels and routes split the accounting of a claim in two.  A kernel
(``kernels``, the Hasse head and tail, the direct sums formed at raised
precision) derives its own claim, rounding included.  The glue that
combines kernel results into a route's value runs in interval arithmetic,
``mpmath.iv``, by :func:`combine`: each result enters as the :func:`ball`
[value - err, value + err], exact inputs as points, constants and
elementary functions come from ``iv`` (``iv.pi``, ``iv.log``, ...), and
the route's value and claim are the midpoint and radius of what comes
out, so the glue counts no rounding by hand.  So do the terms of a direct
series, which ``kernels.sum_majorized`` adds in ``iv``.
:meth:`PrecisionConfig.workprec` sets ``iv.prec`` with ``mp.prec``, so
the glue runs at the working precision.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from mpmath import iv, mp, mpc, mpf

# the error types live in the package, whose import loads no mpmath
from . import DomainError, PoleError  # noqa: F401

_BITS_PER_DIGIT = math.log2(10)
_GUARD_BITS = 64


class PrecisionConfig:
    """A request: target digits and, optionally, a tolerance.

    ``tolerance`` defaults to 10**(-digits) when left unset, and is
    keyword-only.  The working precision carries 64 guard bits; kernels
    that suffer cancellation add their own on top (the Hasse head adds one
    bit per outer term, for instance).  No term budget travels with the
    request: each route stops on its own claim, and that claim is its
    verdict.  A config is immutable and compares, hashes and pickles by its
    two fields; :meth:`replace` makes a changed copy.  It is no frozen
    dataclass: ``dataclasses`` loads ``inspect``, about 4 ms that every
    ``compute`` process would pay.
    """

    __slots__ = ("digits", "tolerance")

    def __init__(self, digits: int = 30, *, tolerance: Optional[mpf] = None):
        if digits < 10:
            raise ValueError("digits must be >= 10")
        if tolerance is not None and not tolerance > 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "tolerance", tolerance)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionConfig is immutable; use replace()")

    def __delattr__(self, name):
        raise AttributeError("PrecisionConfig is immutable")

    def _fields(self):
        return self.digits, self.tolerance

    def __eq__(self, other):
        if type(other) is not PrecisionConfig:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        # rebuilt through __init__: the default slot-state restore would
        # go through the refusing __setattr__
        return _rebuild_config, self._fields()

    def __repr__(self):
        return "PrecisionConfig(digits={!r}, tolerance={!r})".format(
            *self._fields())

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

    @contextmanager
    def workprec(self, extra_bits: int = 0):
        """Context manager setting the working precision for a kernel, of
        ``mp`` and ``iv`` alike: the one place ``iv.prec`` is kept equal to
        ``mp.prec``."""
        bits = self.working_bits + extra_bits
        outer = iv.prec
        iv.prec = bits
        try:
            with mp.workprec(bits):
                yield
        finally:
            iv.prec = outer


DEFAULT_CFG = PrecisionConfig()


def _rebuild_config(digits, tolerance):
    return PrecisionConfig(digits, tolerance=tolerance)


class SeriesResult(NamedTuple):
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


class IdentityReport(NamedTuple):
    """Machine-readable outcome of one identity check.

    :meth:`build` decides the verdict, here and nowhere else, from the
    request ``tol`` that both sides, values or results, were computed under.
    Sides that each meet it agree within twice it, so a report passes when
    |lhs - rhs| <= 2 tol max(1, |lhs|, |rhs|), the bound kept as
    ``tolerance``.
    """

    identity: str
    lhs: mpf
    rhs: mpf
    residual: mpf
    tolerance: mpf
    passed: bool
    x: Optional[mpf] = None
    meta: str = ""

    @classmethod
    def build(cls, identity, lhs, rhs, tol, x=None, meta=""):
        lhs, rhs = (v.value if isinstance(v, SeriesResult) else v
                    for v in (lhs, rhs))
        # residual at high fixed precision: operands carry their full
        # mantissas, so the ambient context must not truncate the difference
        with mp.workprec(max(mp.prec, 768)):
            lhs, rhs = mpf(lhs), mpf(rhs)
            residual = abs(lhs - rhs)
            bound = 2 * mpf(tol) * max(1, abs(lhs), abs(rhs))
            passed = bool(residual <= bound)
        return cls(identity=identity, lhs=lhs, rhs=rhs, residual=residual,
                   tolerance=bound, passed=passed,
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


def ball(r: SeriesResult):
    """r as the ``iv`` interval [value - err, value + err], or as the point
    value if err is infinite: enter only finite claims outside
    :func:`combine`, which makes its own claim infinite then."""
    if not mp.isfinite(r.err_estimate):
        return iv.mpf(r.value)
    return iv.mpf(r.value) + iv.mpf([-r.err_estimate, r.err_estimate])


def combine(glue: Callable, *results: SeriesResult, tol: mpf,
            terms: Optional[int] = None):
    """glue(*balls) in interval arithmetic: how a route combines its kernel
    results into the value it returns, with a claim that covers them.

    Each result enters ``mpmath.iv`` as its :func:`ball`; ``glue``
    computes in ``iv`` from those balls and from exact inputs entered as
    points.  The value returned is the midpoint of the interval that comes
    out, at the working precision, and the claim the distance from it to
    the interval's farther end, rounded up; a complex interval is bounded
    by its modulus.  A point input is taken as exact: the claim covers no
    rounding made before it entered, such as a coefficient callback's
    value, so a glue builds its constants in ``iv`` from exact numbers
    (``iv.pi * p / q``, not ``iv.pi * (mpf(p) / q)``).  An infinite claim
    enters as the point value, so the result keeps a value, and its claim
    is infinite.  ``terms`` defaults to the results' terms added up.  A
    glue that returns a list gives a list of results.
    """
    bounded = all(mp.isfinite(r.err_estimate) for r in results)
    out = glue(*map(ball, results))
    if terms is None:
        terms = sum(r.terms_used for r in results)

    def settle(y):
        if isinstance(y, iv.mpc):
            value = mpc(mpf(y.real.mid), mpf(y.imag.mid))
        else:
            value = mpf(y.mid)
        err = mpf(abs(y - value).b) if bounded else mp.inf
        return SeriesResult(value, err, terms, tol)

    return [settle(y) for y in out] if isinstance(out, list) else settle(out)


def shift_up(x, term, floor=1):
    """(x + k, sum_{j<k} term(x + j), k) for the fewest k >= 0 with
    x + k >= floor: how the routes that need x >= floor reach smaller x by
    their recurrences.  ``term`` computes in ``iv``, so the sum is an
    interval that holds its own rounding."""
    shift = iv.mpf(0)
    k = 0
    while x < floor:
        shift += term(x)
        x += 1
        k += 1
    return x, shift, k


def require_positive(x) -> mpf:
    """x as :func:`as_real` gives it, refused unless x > 0."""
    x = as_real(x)
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    return x


def as_real(value) -> mpf:
    """Convert int/float/str/Fraction to mpf at the active precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)
