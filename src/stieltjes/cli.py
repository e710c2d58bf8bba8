"""Command-line interface: compute / validate / table.

Values are serialized as decimal strings (never binary floats).  The
``result`` block of every JSON document is deterministic for identical
flags; timestamps and elapsed times live in the separate ``meta`` block.
Every printed ``value``, ``err_estimate`` and ``terms_used`` is the route's
own :class:`~stieltjes.core.SeriesResult`, and ``converged`` is its verdict.

Each ``compute`` is a fresh process, so it loads only what its request runs.
It first makes the checks that need no mpmath (digits in [10, 200],
``--max-terms`` >= 1, the quantity's required arguments) and resolves the
route (a default or ``auto`` becomes the route that runs); then it looks the
request up in the result cache.  A hit prints the stored result and loads
neither mpmath nor any computing module; its ``meta.mpmath`` is the mpmath
version that computed the entry.  Only a miss imports mpmath and the module
that holds its quantity's evaluator (``gammafuncs`` for ``digamma`` and
``log_gamma``, ``hurwitz`` for the zeta quantities, ``constants`` for
``gamma_m``, ``fourier`` for ``sondow_gamma``, each with the modules it
imports), and ``meta.mpmath`` is the version in use.  ``meta.elapsed_ms``
runs from the cache lookup to the result, so on a miss it includes loading
mpmath and those modules.  ``s`` reaches the route exactly (a decimal's text
is an exact fraction), so s near 1 keeps s - 1 to working precision; the
printed ``params`` and the cache key keep the text as typed.

``validate`` runs its suites at the same time on the usable cores: one
forked worker process per core, and a free worker takes the next suite
(one suite, or one core, runs in-process).  ``meta.suite_ms`` is each
suite's own time inside its worker, so their sum can exceed
``meta.elapsed_ms``, the wall time.  Reports are sorted, so the output does
not depend on the order in which suites finish.

Exit codes: 0 success, 1 failed validation, 2 usage/parse error,
3 kernel error, or a route whose own error estimate misses the request
(10^-digits max(1, |value|)).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from importlib import import_module

from . import DomainError, NonConvergence, PrecisionError, __version__
from .cache import ResultCache

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONV = 3


def _parse_number(text):
    """'p/q' -> an exact Fraction; a decimal stays the text as typed, which
    the printed params and the cache key keep."""
    if "/" in text:
        p, _, q = text.partition("/")
        return Fraction(int(p), int(q))
    return text


def _fmt(value, digits):
    from mpmath import mp
    return mp.nstr(value, digits, strip_zeros=False)


def _check_budget(args):
    """The request's digits and term cap, checked without mpmath."""
    if not 10 <= args.digits <= 200:
        raise DomainError("digits must lie in [10, 200]")
    if args.max_terms < 1:
        raise DomainError("max_terms must be >= 1")


def _build_cfg(args):
    from .core import PrecisionConfig
    _check_budget(args)
    return PrecisionConfig(digits=args.digits, max_terms=args.max_terms)


def _series_only(name):
    def evaluate(module, route, a, cfg):
        if route != "series":
            raise DomainError(f"unknown {name} method {route!r}")
        return getattr(module, name)(a.x, cfg)
    return evaluate


# quantity -> (default route, required arguments, module, evaluator(module,
# route, args, cfg)).  An evaluator returns the route's SeriesResult; the
# module is imported and its kernel looked up at call time, so a request
# loads only that module and a rebound module attribute is used.
QUANTITIES = {
    "gamma_m": ("em", ("m", "x"), "constants",
                lambda mod, route, a, cfg: mod.stieltjes_gamma(a.m, a.x, route, cfg)),
    "zeta": ("em", ("s",), "hurwitz", lambda mod, route, a, cfg: mod.zeta(
        a.s, a.x, a.deriv, route, cfg)),
    "zeta_prime0": ("em", ("x",), "hurwitz",
                    lambda mod, route, a, cfg: mod.zeta_prime0(a.x, route, cfg)),
    "zeta_doubleprime0": ("em", ("x",), "hurwitz",
                          lambda mod, route, a, cfg: mod.zeta_doubleprime0(a.x, route, cfg)),
    "digamma": ("series", ("x",), "gammafuncs", _series_only("digamma")),
    "log_gamma": ("series", ("x",), "gammafuncs", _series_only("log_gamma")),
    # an exact p/q selects the unit-circle point exp(i pi p/q)
    "sondow_gamma": ("series", ("x",), "fourier",
                     lambda mod, route, a, cfg: mod.sondow_gamma(
                         a.raw_x if isinstance(a.raw_x, Fraction) else a.x,
                         cfg, route=route)),
}


def _route(args, x):
    """The route that runs, once the quantity's required arguments are
    there; needs no mpmath."""
    default, required = QUANTITIES[args.quantity][:2]
    given = {"m": args.m, "x": x, "s": args.s}
    missing = [f"-{k}" for k in required if given[k] is None]
    if missing:
        raise DomainError(f"{args.quantity} requires {' and '.join(missing)}")
    route = args.method or default
    if args.quantity == "zeta" and route == "auto":
        route = "em"
    return route


def _exact(text):
    """A decimal's text as the exact Fraction it names; other text (inf,
    nan) is left for mpmath to read."""
    try:
        return Fraction(text)
    except ValueError:
        return text


def _arguments(args, x, cfg):
    """The quantity's arguments: x at working precision, s exact."""
    from mpmath import mpf
    from .core import as_real
    with cfg.workprec():
        return argparse.Namespace(
            m=args.m, deriv=args.deriv, raw_x=x,
            x=mpf(1) if x is None else as_real(x),
            s=None if args.s is None else _exact(args.s))


def _evaluate(args, x, route, cfg):
    """Result fields shared by compute and table: value, claimed error, terms,
    convergence (and value_im for a complex value)."""
    from mpmath import mp, mpc
    _, _, module, evaluate = QUANTITIES[args.quantity]
    res = evaluate(import_module(f".{module}", __package__), route,
                   _arguments(args, x, cfg), cfg)
    out = {"value": _fmt(mp.re(res.value), cfg.digits),
           "err_estimate": _fmt(res.err_estimate, 3),
           "terms_used": res.terms_used,
           "converged": res.converged}
    if isinstance(res.value, mpc):
        out["value_im"] = _fmt(res.value.imag, cfg.digits)
    return out


def cmd_compute(args) -> int:
    _check_budget(args)
    route = _route(args, args.x)
    params = {"x": str(args.x) if args.x is not None else None,
              "s": str(args.s) if args.s is not None else None,
              "m": args.m, "deriv": args.deriv}
    params = {k: v for k, v in params.items() if v is not None}
    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    t0 = time.monotonic()
    cached = cache.get(args.quantity, params, route, args.digits)
    if cached is not None:
        result, mpmath_version = cached["result"], cached["mpmath"]
    else:
        import mpmath
        mpmath_version = mpmath.__version__
        cfg = _build_cfg(args)
        result = {"quantity": args.quantity, "params": params, "method": route,
                  "digits": cfg.digits, **_evaluate(args, args.x, route, cfg)}
        if result["converged"]:
            cache.put(args.quantity, params, route, cfg.digits,
                      {"result": result})
    doc = {
        "result": result,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_ms": round(1000 * (time.monotonic() - t0), 3),
            "version": __version__,
            "mpmath": mpmath_version,
            "cache_hit": cached is not None,
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK if result["converged"] else EXIT_NONCONV


def _run_suite(name, cfg):
    """One suite in this process: (name, report dicts, passed, elapsed ms).

    Reports travel as dicts because a report may hold an mpmath constant,
    which does not pickle."""
    from . import suites
    t = time.monotonic()
    reports, passed = suites.run_suites([name], cfg)
    ms = round(1000 * (time.monotonic() - t), 3)
    return name, [r.as_dict() for r in reports], passed, ms


def _run_side_by_side(names, cfg):
    """_run_suite over names, in order, on one forked worker per usable core.

    A free worker takes the next suite.  With one worker the suites run in
    this process.  Every worker is gone when this returns or raises."""
    run = functools.partial(_run_suite, cfg=cfg)
    workers = min(len(os.sched_getaffinity(0)), len(names))
    if workers == 1:
        return [run(n) for n in names]
    import multiprocessing
    # fork, not spawn: the CLI runs no threads, and a spawned worker would
    # import mpmath and the package again before its first suite
    sys.stdout.flush()  # no worker may inherit, and repeat, buffered output
    sys.stderr.flush()
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        return pool.map(run, names, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def cmd_validate(args) -> int:
    import mpmath
    from . import suites
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
    try:
        done = _run_side_by_side(names, cfg)
    except Exception as exc:  # kernel failure, not an identity failure
        print(f"error: kernel failure during validation: {exc}",
              file=sys.stderr)
        return EXIT_NONCONV
    entries, ok, suite_ms = [], True, {}
    for n, got, passed, ms in done:
        entries += got
        ok = ok and passed
        suite_ms[n] = suite_ms.get(n, 0) + ms
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
    from mpmath import mpf
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
    import csv
    cfg = _build_cfg(args)
    with cfg.workprec():
        grid = _parse_grid(args.grid)
    rows = []
    for x in grid:
        route = _route(args, x)
        rows.append({"x": _fmt(x, cfg.digits),
                     **_evaluate(args, x, route, cfg)})
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

    pv = sub.add_parser(
        "validate", help="run identity validation suites",
        description="Run identity validation suites at the same time on the "
                    "usable cores: one forked worker process per core, and a "
                    "free worker takes the next suite.  "
                    "meta.suite_ms is each suite's own time in its worker, "
                    "so its sum can exceed meta.elapsed_ms, the wall time. "
                    "The output does not depend on the order in which "
                    "suites finish.")
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
