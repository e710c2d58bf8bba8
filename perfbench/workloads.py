"""Seeded operation lists for the three workloads.

Every list is a pure function of (seed, seconds): the same seed gives a
byte-identical list (``op_hash`` records it), and a different seed keeps
the mix proportions, because each block of a list fills the same fixed
slots and the seed only draws the arguments inside each slot's range (for
trig-sums, only x or 1 - x) and the order.  The amount of work is fixed per ``--seconds``: a run executes
whole blocks, sized so that one run takes about ``--seconds`` at the
commit that introduced the benchmark; faster code finishes sooner and
``wall_s`` shows it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction


def op_hash(ops):
    canon = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def blocks_for(seconds, block_seconds):
    return max(1, round(seconds / block_seconds))


def _block_uniforms(rng, blocks, slots):
    """One uniform per (block, slot) for the argument that drives its cost.

    Odd blocks mirror the block before (u -> 1 - u), so each pair of blocks
    covers both ends of every slot's range and a run's total cost varies
    less from seed to seed.
    """
    out = []
    for b in range(blocks):
        if b % 2:
            out.append([1 - u for u in out[-1]])
        else:
            out.append([rng.random() for _ in range(slots)])
    return out


def _pick(u, n):
    """Index in range(n) for u in [0, 1]."""
    return min(n - 1, int(u * n))


def _rational(rng, qmin, qmax, lo, hi):
    """Reduced p/q with qmin <= q <= qmax and lo <= p/q <= hi."""
    while True:
        q = rng.randint(qmin, qmax)
        p = rng.randint(max(1, math.ceil(lo * q)), max(1, math.floor(hi * q)))
        if math.gcd(p, q) == 1 and lo <= Fraction(p, q) <= hi:
            return f"{p}/{q}"


def _x_mixed(rng, lo=0.25, hi=3.0):
    """Half exact small-denominator rationals, half 4-decimal values."""
    if rng.random() < 0.5:
        return _rational(rng, 2, 12, lo, hi)
    return f"{rng.uniform(lo, hi):.4f}"


def _dyadic(u, lo, hi, q=64):
    """p/q with q | 64 between lo and hi, exact in binary floating point."""
    p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
    return str(Fraction(p_lo + _pick(u, p_hi - p_lo + 1), q))


def _near_pole(rng, u):
    """s = 1 +- 2^-j, j in [7, 24]: near the pole, clear of the 1e-8 guard."""
    return str(1 + rng.choice((-1, 1)) * Fraction(1, 2 ** (7 + _pick(u, 18))))


def _log_uniform(u, lo, hi):
    return f"{lo * (hi / lo) ** u:.4f}"


# ---------------------------------------------------------------------------
# cli-compute: one `stieltjes compute` process per request
# ---------------------------------------------------------------------------

CLI_BLOCK_SECONDS = 15  # one block of 25 requests takes ~15 s at HEAD

# (quantity, digits, argument maker); the routes are the CLI defaults.
# Sixteen of the 25 requests in a block cost little more than interpreter
# start-up (cache hits, digamma, the Euler-Maclaurin zeta route, log_gamma
# at small x), so the median request sits inside that cluster and moves
# with start-up, cache and EM cost; the eight Hasse-route requests and
# log_gamma at large x carry most of wall_s.
#
# s is dyadic: at deriv 0 hurwitz.zeta rounds s to 53 bits before it
# dispatches, so `-s 0.385` is right to ~17 digits only (a HEAD defect the
# stream steps around; see README.md).
CLI_SLOTS = (
    # cheap
    ("digamma", 20, lambda r, u: {"x": _log_uniform(u, 1e-2, 1e3)}),
    ("digamma", 50, lambda r, u: {"x": _log_uniform(u, 1e-2, 1e3)}),
    ("digamma", 100, lambda r, u: {"x": _log_uniform(u, 1e-2, 1e3)}),
    # s > 3/2 without derivative: the Euler-Maclaurin route
    ("zeta", 20, lambda r, u: {"s": _dyadic(u, 1.6, 6), "x": _x_mixed(r)}),
    ("zeta", 30, lambda r, u: {"s": _dyadic(u, 1.6, 6), "x": _x_mixed(r)}),
    ("zeta", 50, lambda r, u: {"s": _dyadic(u, 1.6, 6), "x": _x_mixed(r)}),
    ("zeta", 100, lambda r, u: {"s": _dyadic(u, 1.6, 6), "x": _x_mixed(r)}),
    # log_gamma: x log-uniform up to 1e5, one request per decade band
    ("log_gamma", 20, lambda r, u: {"x": _log_uniform(u, 1, 10)}),
    ("log_gamma", 30, lambda r, u: {"x": _log_uniform(u, 10, 1e2)}),
    ("log_gamma", 50, lambda r, u: {"x": _log_uniform(u, 1e2, 1e3)}),
    ("log_gamma", 100, lambda r, u: {"x": _log_uniform(u, 1e3, 1e4)}),
    ("log_gamma", 20, lambda r, u: {"x": _log_uniform(u, 1e4, 1e5)}),
    # Hasse route
    # at 30 digits m = 12 lands within 1e-30 but far outside the 1.7e-48 the
    # Hasse route claims: overclaim_frac shows it
    ("gamma_m", 30, lambda r, u: {"m": _pick(u, 13), "x": _x_mixed(r)}),
    ("gamma_m", 50, lambda r, u: {"m": _pick(u, 7), "x": _x_mixed(r)}),
    ("zeta", 30, lambda r, u: {"s": _dyadic(u, -1, 0.9), "x": _x_mixed(r)}),
    ("zeta", 20, lambda r, u: {"s": _near_pole(r, u), "x": _x_mixed(r)}),
    # with a derivative, auto picks Hasse on both sides of the pole
    ("zeta", 20, lambda r, u: {"s": _dyadic(r.random(), *((-1, 0.9), (1.6, 6))[_pick(u, 4) // 2]),
                               "x": _x_mixed(r), "deriv": 1 + _pick(u, 4) % 2}),
    ("zeta_prime0", 30, lambda r, u: {"x": _x_mixed(r)}),
    ("zeta_doubleprime0", 20, lambda r, u: {"x": _x_mixed(r)}),
)
CLI_EXACT_REPEATS = 5   # cache hits
# The respelled repeat names its default --method, a different cache key:
# a miss and a write.  It repeats the first Euler-Maclaurin zeta slot.
CLI_RESPELLED_SLOT = 3
DEFAULT_METHOD = {"zeta": "auto"}


def cli_argv(quantity, params, digits, method=None):
    argv = ["compute", quantity]
    if "m" in params:
        argv += ["-m", str(params["m"])]
    if "x" in params:
        argv += ["-x", params["x"]]
    if "s" in params:
        argv.append(f"-s={params['s']}")  # `-s -1/2` would parse as a flag
    if params.get("deriv"):
        argv += ["--deriv", str(params["deriv"])]
    argv += ["--digits", str(digits)]
    if method:
        argv += ["--method", method]
    return argv


def cli_compute_ops(seed, seconds):
    rng = random.Random(f"cli-compute/{seed}")
    ops = []
    blocks = blocks_for(seconds, CLI_BLOCK_SECONDS)
    for us in _block_uniforms(rng, blocks, len(CLI_SLOTS)):
        fresh = []
        for slot, ((quantity, digits, make), u) in enumerate(zip(CLI_SLOTS, us)):
            params = make(rng, u)
            fresh.append({"kind": "fresh", "slot": slot, "quantity": quantity,
                          "params": params, "digits": digits,
                          "argv": cli_argv(quantity, params, digits)})
        block = list(fresh)
        rng.shuffle(block)
        repeats = [(rng.choice(fresh), "repeat") for _ in range(CLI_EXACT_REPEATS)]
        repeats.append((fresh[CLI_RESPELLED_SLOT], "respelled"))
        for orig, kind in repeats:
            op = dict(orig, kind=kind)
            if kind == "respelled":
                q = orig["quantity"]
                op["argv"] = cli_argv(q, orig["params"], orig["digits"],
                                      DEFAULT_METHOD[q])
            after = block.index(orig) + 1
            block.insert(rng.randint(after, len(block)), op)
        ops += block
    return ops


# ---------------------------------------------------------------------------
# catalogue: one `stieltjes validate --json --digits 20` process
# ---------------------------------------------------------------------------

CATALOGUE_DIGITS = 20
# Every suite id except the seven dearest.  A pass over all 29 takes ~100 s
# at 20 digits on 2 cores, too long for a run when each workload is run 22
# times within one hour; the seven left out (shift, hurwitz-fourier,
# lerch-identity, deninger, landau-f, gamma1-rational, landau-gamma1:
# ~72 s) repeat the Hasse calls the others already make.
CATALOGUE_SUITES = (
    "recurrence", "gamma0-digamma", "digamma-integral", "coffey-integral",
    "digamma-series", "gamma1-prime", "elementary-fourier", "kummer",
    "series-316", "wallis", "gamma1-fourier", "series-325-family", "kolbig",
    "adamchik", "ramanujan", "sondow", "poisson", "briggs", "bourguet",
    "srivastava-choi", "bell-series", "route-agreement",
)


def catalogue_ops(seed, seconds):
    """One validate request; the seed only permutes the suite order."""
    order = list(CATALOGUE_SUITES)
    random.Random(f"catalogue/{seed}").shuffle(order)
    return [{"kind": "validate", "suites": order,
             "argv": ["validate", "--suite", ",".join(order), "--json",
                      "--digits", str(CATALOGUE_DIGITS)]}]


# ---------------------------------------------------------------------------
# trig-sums: in-process calls to kernels.sum_trig_averaged at 20 digits
# ---------------------------------------------------------------------------

TRIG_BLOCK_SECONDS = 15  # one block of 24 calls takes ~18 s at HEAD
TRIG_DIGITS = 20
# (family, mode); the coefficient of each family is built in perfbench.child
TRIG_FAMILIES = (("recip", "sin"), ("recip", "cos"), ("logn", "sin"),
                 ("log1p", "sin"), ("power", "cos"), ("power", "sin"))
# Each pair is summed at four x: a short period (q <= 12) and a long one
# (13 <= q <= 64, still resolved exactly by the kernel's cancellation
# window), each near an end of (0, 1) and mid-interval; the power family
# takes one s per x, from fast to slow decay.  Convergence, hence cost,
# turns on these in steps of a doubled term count: drawing them per seed
# made a run's cost vary by a quarter between seeds.  So the grid is fixed
# and the seed draws what leaves the cost alone: x or 1 - x (the terms
# only change sign) and the order.
TRIG_GRID = (("short", "1/8", "-3/4"), ("short", "5/12", "1/4"),
             ("long", "7/48", "-1/4"), ("long", "23/48", "3/4"))


def trig_sums_ops(seed, seconds):
    rng = random.Random(f"trig-sums/{seed}")
    ops = []
    for _ in range(blocks_for(seconds, TRIG_BLOCK_SECONDS)):
        block = []
        for family, mode in TRIG_FAMILIES:
            for xclass, x, s in TRIG_GRID:
                if rng.random() < 0.5:
                    x = str(1 - Fraction(x))
                block.append({"family": family, "mode": mode,
                              "xclass": xclass, "x": x,
                              "s": s if family == "power" else None,
                              "digits": TRIG_DIGITS})
        rng.shuffle(block)
        ops += block
    return ops


GENERATORS = {
    "cli-compute": cli_compute_ops,
    "catalogue": catalogue_ops,
    "trig-sums": trig_sums_ops,
}
