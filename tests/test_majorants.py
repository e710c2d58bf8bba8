"""Each majorant that ``gauss.integrate_analytic`` runs on, sampled against
its integrand: on the boundary of seeded random ellipses, |f| at 60 digits
is at most exp(bound(c, major, minor)).  A sampled check of a bound tests
it; it does not prove it.

The ellipses are drawn like the kernel's: a centre c in the integration
range, a half-length h from 2^-8 up to half the range, rho = 1 + 2^(j/2)
for j in [-12, 12), and the semi-axes h (rho +- 1/rho) / 2.  Each
majorant gets ``ELLIPSES`` of them and ``POINTS`` points on each.  Where
a bound is tight, its leftmost or topmost point comes within a few
percent of it: lowered by log 1.1, Kolbig's bound, the oscillatory bound
and ``_peak`` each fail here.  The oscillatory bound is looser for P = L
and for the sine mode (|f| stays below e^-0.4 of it), so a bound lowered
by 10% fails on the cosine mode with P = 1.  The file takes about 4 s on
2 shared cores.
"""

import math
import random

import pytest
from mpmath import mp, mpc, mpf

from stieltjes import gauss
from stieltjes.core import PrecisionConfig
from stieltjes.fourier import _kolbig_bound

from test_kernels import _peak

SEED = 2
ELLIPSES = 48
POINTS = 32


def _worst(f, bound, lo, hi):
    """(max of log |f| - bound over the sampled boundary points, the
    number of ellipses whose bound is finite)."""
    rng = random.Random(SEED)
    worst, finite = -math.inf, 0
    for _ in range(ELLIPSES):
        c = rng.uniform(lo, hi)
        h = 2 ** rng.uniform(-8, math.log2((hi - lo) / 2))
        rho = 1 + 2 ** (rng.randrange(-12, 12) / 2)
        major, minor = h * (rho + 1 / rho) / 2, h * (rho - 1 / rho) / 2
        log_bound = bound(c, major, minor)
        if log_bound == math.inf:
            continue
        finite += 1
        with mp.workdps(60):
            for k in range(POINTS):
                theta = 2 * mp.pi * k / POINTS
                z = mpc(c + major * mp.cos(theta), minor * mp.sin(theta))
                size = abs(f(z))
                if size:
                    worst = max(worst, float(mp.log(size)) - log_bound)
    return worst, finite


def test_kolbig_bound_holds():
    worst, finite = _worst(lambda z: mp.digamma(z) * mp.sinpi(z),
                           _kolbig_bound, 0, 1)
    assert finite == ELLIPSES
    assert worst <= 0


def test_peak_bound_holds():
    # centres about the peak at 0.3, where the bound is tight
    worst, finite = _worst(
        lambda z: mp.exp(-((z - mpf("0.3")) / mpf("1e-3")) ** 2),
        _peak, 0.29, 0.31)
    assert finite == ELLIPSES
    assert worst <= 0


def _w0(z):
    return 1 / mp.expm1(2 * mp.pi * z)


def _cosine(P, s, x):
    # -Im g(x + iu) W_0(u), g(y) = P(log y) y^-s, continued off the line
    def g(y):
        return mp.polyval(P[::-1], mp.log(y)) * y ** -s
    return lambda z: -(g(x + 1j * z) - g(x - 1j * z)) / 2j * _w0(z)


def _binet(x):
    # 2 pi Im log(x + iu) W_0(u), continued off the line
    return lambda z: (2 * mp.pi * (mp.log(x + 1j * z) - mp.log(x - 1j * z))
                      / 2j * _w0(z))


@pytest.mark.parametrize("poly,s,x,mode,reference", [
    ([1], 2, 1, "cos", _cosine([1], 2, 1)),
    ([1], 3, mpf(3) / 2, "cos", _cosine([1], 3, mpf(3) / 2)),
    ([0, 1], 1, mpf(3) / 2, "cos", _cosine([0, 1], 1, mpf(3) / 2)),
    ([1], 1, mpf(5) / 2, "sin", _binet(mpf(5) / 2))],
    ids=["poisson-s2", "poisson-s3", "briggs-m1", "bourguet"])
def test_oscillatory_bound_holds(monkeypatch, poly, s, x, mode, reference):
    # the kernel's own integrand and bound, taken from its one call
    seen = {}
    inner = gauss.integrate_analytic

    def capture(f, a, b, bound, cfg, rest=0):
        seen.update(f=f, b=float(b), bound=bound)
        return inner(f, a, b, bound, cfg, rest)

    monkeypatch.setattr(gauss, "integrate_analytic", capture)
    gauss.sum_oscillatory(poly, s, x, mode, PrecisionConfig(digits=20))
    # the reference is the kernel's integrand on the real line
    for u in (mpf(1) / 8, mpf(1), mpf(3)):
        assert abs(reference(u).real - seen["f"](u)) <= (
            mpf(2) ** -60 * abs(seen["f"](u)))
    worst, finite = _worst(reference, seen["bound"], 0, seen["b"])
    assert finite >= ELLIPSES // 2
    assert worst <= 0
