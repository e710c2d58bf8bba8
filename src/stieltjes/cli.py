"""Command-line interface: compute / validate / table.

Values are serialized as decimal strings (never binary floats).  The
``result`` block of every JSON document is deterministic for identical
flags; timestamps and elapsed times (for ``validate`` also ``suite_ms``,
each suite's own) live in the separate ``meta`` block.
Every printed ``value``, ``err_estimate`` and ``terms_used`` is the route's
own :class:`~stieltjes.core.SeriesResult`, and ``converged`` is its verdict.

Exit codes: 0 success, 1 failed validation, 2 usage/parse error,
3 kernel error, or a route whose own error estimate misses the request
(10^-digits max(1, |value|)).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from . import __version__
from .core import (DomainError, NonConvergence, PrecisionConfig,
                   PrecisionError, as_real)
from .cache import ResultCache
from . import constants, fourier, gammafuncs, hurwitz, suites

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONV = 3


def _parse_number(text):
    """Decimal string -> mpf factory; 'p/q' stays an exact Fraction."""
    if "/" in text:
        p, _, q = text.partition("/")
        return Fraction(int(p), int(q))
    return text  # converted to mpf at working precision later


def _fmt(value, digits):
    return mp.nstr(value, digits, strip_zeros=False)


def _build_cfg(args) -> PrecisionConfig:
    digits = args.digits
    if not 10 <= digits <= 200:
        raise DomainError("digits must lie in [10, 200]")
    return PrecisionConfig(digits=digits, max_terms=args.max_terms)


def _series_only(name):
    def evaluate(route, a, cfg):
        if route != "series":
            raise DomainError(f"unknown {name} method {route!r}")
        return getattr(gammafuncs, name)(a.x, cfg)
    return evaluate


# quantity -> (default route, required arguments, evaluator(route, args, cfg)).
# An evaluator returns the route's SeriesResult; it looks its kernel up at
# call time, so a rebound module attribute is used.
QUANTITIES = {
    "gamma_m": ("em", ("m", "x"),
                lambda route, a, cfg: constants.stieltjes_gamma(a.m, a.x, route, cfg)),
    "zeta": ("em", ("s",), lambda route, a, cfg: hurwitz.zeta(
        a.s, a.x, a.deriv, route, cfg)),
    "zeta_prime0": ("em", ("x",),
                    lambda route, a, cfg: hurwitz.zeta_prime0(a.x, route, cfg)),
    "zeta_doubleprime0": ("em", ("x",),
                          lambda route, a, cfg: hurwitz.zeta_doubleprime0(a.x, route, cfg)),
    "digamma": ("series", ("x",), _series_only("digamma")),
    "log_gamma": ("series", ("x",), _series_only("log_gamma")),
    # an exact p/q selects the unit-circle point exp(i pi p/q)
    "sondow_gamma": ("series", ("x",), lambda route, a, cfg: fourier.sondow_gamma(
        a.raw_x if isinstance(a.raw_x, Fraction) else a.x, cfg, route=route)),
}


def _arguments(args, x, cfg):
    """The quantity's arguments at working precision, and the resolved route."""
    default, required, _ = QUANTITIES[args.quantity]
    given = {"m": args.m, "x": x, "s": args.s}
    missing = [f"-{k}" for k in required if given[k] is None]
    if missing:
        raise DomainError(f"{args.quantity} requires {' and '.join(missing)}")
    with cfg.workprec():
        a = argparse.Namespace(
            m=args.m, deriv=args.deriv, raw_x=x,
            x=mpf(1) if x is None else as_real(x),
            s=None if args.s is None else as_real(args.s))
    route = args.method or default
    if args.quantity == "zeta" and route == "auto":
        route = "em"
    return a, route


def _evaluate(args, a, route, cfg):
    """Result fields shared by compute and table: value, claimed error, terms,
    convergence (and value_im for a complex value)."""
    res = QUANTITIES[args.quantity][2](route, a, cfg)
    out = {"value": _fmt(mp.re(res.value), cfg.digits),
           "err_estimate": _fmt(res.err_estimate, 3),
           "terms_used": res.terms_used,
           "converged": res.converged}
    if isinstance(res.value, mpc):
        out["value_im"] = _fmt(res.value.imag, cfg.digits)
    return out


def cmd_compute(args) -> int:
    cfg = _build_cfg(args)
    params = {"x": str(args.x) if args.x is not None else None,
              "s": str(args.s) if args.s is not None else None,
              "m": args.m, "deriv": args.deriv}
    params = {k: v for k, v in params.items() if v is not None}
    a, route = _arguments(args, args.x, cfg)
    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    t0 = time.monotonic()
    cached = cache.get(args.quantity, params, route, cfg.digits)
    if cached is not None:
        result = cached["result"]
    else:
        result = {"quantity": args.quantity, "params": params, "method": route,
                  "digits": cfg.digits, **_evaluate(args, a, route, cfg)}
        if result["converged"]:
            cache.put(args.quantity, params, route, cfg.digits,
                      {"result": result})
    doc = {
        "result": result,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_ms": round(1000 * (time.monotonic() - t0), 3),
            "version": __version__,
            "mpmath": mpmath.__version__,
            "cache_hit": cached is not None,
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK if result["converged"] else EXIT_NONCONV


def cmd_validate(args) -> int:
    cfg = _build_cfg(args)
    if args.suite == "all":
        names = list(suites.SUITES)
    else:
        names = [n.strip() for n in args.suite.split(",") if n.strip()]
    if not names:
        print("error: empty suite list", file=sys.stderr)
        return EXIT_USAGE
    for n in names:
        if n not in suites.SUITES:
            print(f"error: unknown suite {n!r}; known: "
                  f"{', '.join(sorted(suites.SUITES))}", file=sys.stderr)
            return EXIT_USAGE
    t0 = time.monotonic()
    reports, ok, suite_ms = [], True, {}
    try:
        for n in names:
            t = time.monotonic()
            got, passed = suites.run_suites([n], cfg)
            suite_ms[n] = suite_ms.get(n, 0) + round(
                1000 * (time.monotonic() - t), 3)
            reports += got
            ok = ok and passed
    except Exception as exc:  # kernel failure, not an identity failure
        print(f"error: kernel failure during validation: {exc}",
              file=sys.stderr)
        return EXIT_NONCONV
    entries = [r.as_dict() for r in reports]
    entries.sort(key=lambda e: (e["identity"], e.get("x", ""), e.get("meta", "")))
    doc = {
        "reports": entries,
        "suites": names,
        "all_passed": ok,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_ms": round(1000 * (time.monotonic() - t0), 3),
            "suite_ms": suite_ms,
            "digits": cfg.digits,
            "version": __version__,
            "mpmath": mpmath.__version__,
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for e in entries:
            mark = "PASS" if e["pass"] else (
                "XFAIL" if suites.EXPECTED_FAILURE_MARK in e.get("meta", "")
                else "FAIL")
            extra = f"  [{e['meta']}]" if e.get("meta") else ""
            print(f"{mark:5s} {e['identity']:34s} residual={e['residual']:>12s}"
                  f" tol={e['tolerance']}{extra}")
        n_pass = sum(1 for e in entries if e["pass"])
        print(f"-- {n_pass}/{len(entries)} passed"
              f" ({'ok' if ok else 'FAILURES PRESENT'})")
    return EXIT_OK if ok else EXIT_FAILED


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be start:stop:count")
    start, stop = mpf(parts[0]), mpf(parts[1])
    count = int(parts[2])
    if count < 1 or start <= 0 or stop < start:
        raise DomainError("grid requires 0 < start <= stop and count >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def cmd_table(args) -> int:
    cfg = _build_cfg(args)
    with cfg.workprec():
        grid = _parse_grid(args.grid)
    rows = []
    for x in grid:
        a, route = _arguments(args, x, cfg)
        rows.append({"x": _fmt(x, cfg.digits),
                     **_evaluate(args, a, route, cfg)})
    fmt = "json" if args.json else args.format
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if fmt == "json":
            json.dump({"quantity": args.quantity, "rows": rows}, out_fh,
                      indent=2, sort_keys=True)
            out_fh.write("\n")
        else:
            writer = csv.DictWriter(out_fh, fieldnames=list(rows[0].keys()),
                                    quoting=csv.QUOTE_MINIMAL)
            writer.writeheader()
            writer.writerows(rows)
    finally:
        if args.out:
            out_fh.close()
    return EXIT_OK if all(r["converged"] for r in rows) else EXIT_NONCONV


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Stieltjes constants, Hurwitz zeta and their identity "
                    "catalog at configurable precision.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=30,
                       help="target decimal digits (10..200)")
        p.add_argument("--max-terms", type=int, default=10 ** 6)
        p.add_argument("--method", default=None)
        p.add_argument("--json", action="store_true",
                       help="force JSON output where applicable")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (overrides $STIELTJES_CACHE_DIR)")

    pc = sub.add_parser("compute", help="compute a single quantity")
    pc.add_argument("quantity", choices=list(QUANTITIES))
    pc.add_argument("-m", type=int, default=None, help="Stieltjes index m")
    pc.add_argument("-x", type=_parse_number, default=None,
                    help="argument x (decimal or exact p/q)")
    pc.add_argument("-s", type=_parse_number, default=None,
                    help="zeta argument s")
    pc.add_argument("--deriv", type=int, default=0,
                    help="s-derivative order for zeta")
    pc.add_argument("--no-cache", action="store_true")
    common(pc)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("validate", help="run identity validation suites")
    pv.add_argument("--suite", default="all",
                    help="'all' or comma-separated suite names")
    pv.add_argument("--out", default=None, help="write JSON report here")
    common(pv)
    pv.set_defaults(func=cmd_validate)

    pt = sub.add_parser("table", help="tabulate a quantity over a grid")
    pt.add_argument("quantity", choices=list(QUANTITIES))
    pt.add_argument("--grid", required=True, help="start:stop:count")
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.add_argument("--out", default=None)
    pt.add_argument("-m", type=int, default=None)
    pt.add_argument("-s", type=_parse_number, default=None)
    pt.add_argument("--deriv", type=int, default=0)
    common(pt)
    pt.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergence, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
