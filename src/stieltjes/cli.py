"""Command-line interface: compute / validate / table, each taking only the
flags it reads (``--method`` picks the route of compute and table; compute
always prints JSON, validate with ``--json``, table with ``--format json``).

Values are serialized as decimal strings (never binary floats).  The
``result`` block of every JSON document is deterministic for identical
flags; timestamps and elapsed times live in the separate ``meta`` block.
Every printed ``value``, ``err_estimate`` and ``terms_used`` is the route's
own :class:`~stieltjes.core.SeriesResult`, and ``converged`` is its verdict.

Each ``compute`` is a fresh process, so it loads only what its request runs.
It first checks, with no mpmath, the digits (in [10, 200]) and the route
and arguments against the route's row of :data:`stieltjes.routes.TABLE`
(``auto`` becomes the default route); then it looks the request up in the
result cache.  A hit prints the stored result and loads neither mpmath nor
any computing module; its ``meta.mpmath`` is the mpmath version that
computed the entry.  Only a miss imports mpmath and the module the row
names (``kernels`` for the EM routes of the zeta quantities, ``hurwitz``
for their other routes, ``gammafuncs``, ``constants`` or ``fourier``, each
with the modules it imports), and ``meta.mpmath`` is the version in use.
``meta.elapsed_ms`` runs from the cache lookup to the result, so on a miss
it includes loading mpmath and those modules.  ``s`` reaches the route
exactly (a decimal's text is an exact fraction), so s near 1 keeps s - 1
to working precision; the printed ``params`` and the cache key keep the
text as typed.

``validate`` runs its suites at the same time on the usable cores: one
forked worker process per core, and a free worker takes the next suite
(one suite, or one core, runs in-process).  ``meta.suite_ms`` is each
suite's own time inside its worker, so their sum can exceed
``meta.elapsed_ms``, the wall time.  Reports are sorted, so the output does
not depend on the order in which suites finish.  A report passes when its
sides agree within twice the request, its ``tolerance``.

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

from . import DomainError, __version__, routes
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


def _check_digits(args):
    """The request's digits, checked without mpmath."""
    if not 10 <= args.digits <= 200:
        raise DomainError("digits must lie in [10, 200]")


def _build_cfg(args):
    from .core import PrecisionConfig
    _check_digits(args)
    return PrecisionConfig(digits=args.digits)


def _request(args, x):
    """The request's arguments as typed, which ``routes.resolve`` checks
    against the route's row of the table with no mpmath."""
    return {"m": args.m, "x": x, "s": args.s, "deriv": args.deriv}


def _arguments(args, x, cfg):
    """The request's arguments as the routes read them: x at working
    precision, or the exact p/q typed where the quantity reads it so
    (``routes.EXACT_X``); s as the exact Fraction its text names.  A
    non-finite x or s (inf, nan) is refused."""
    from mpmath import mp
    from .core import as_real
    request = _request(args, x)
    if args.s is not None:
        try:
            request["s"] = Fraction(args.s)
        except ValueError:
            raise DomainError(f"s must be a finite number, got {args.s}") from None
    if x is not None and not (isinstance(x, Fraction)
                              and args.quantity in routes.EXACT_X):
        with cfg.workprec():
            request["x"] = as_real(x)
        if not mp.isfinite(request["x"]):
            raise DomainError(f"x must be a finite number, got {x}")
    return request


def _evaluate(args, x, route, cfg):
    """Result fields shared by compute and table: value, claimed error, terms,
    convergence (and value_im for a complex value)."""
    from mpmath import mp, mpc
    res = routes.run(args.quantity, route, cfg, **_arguments(args, x, cfg))
    out = {"value": _fmt(mp.re(res.value), cfg.digits),
           "err_estimate": _fmt(res.err_estimate, 3),
           "terms_used": res.terms_used,
           "converged": res.converged}
    if isinstance(res.value, mpc):
        out["value_im"] = _fmt(res.value.imag, cfg.digits)
    return out


def cmd_compute(args) -> int:
    _check_digits(args)
    request = _request(args, args.x)
    route = routes.resolve(args.quantity, args.method, request)[0]
    params = {k: str(v) if isinstance(v, Fraction) else v
              for k, v in request.items() if v is not None}
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
    route = routes.resolve(args.quantity, args.method,
                           _request(args, grid[0]))[0]
    rows = [{"x": _fmt(x, cfg.digits), **_evaluate(args, x, route, cfg)}
            for x in grid]
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "json":
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

    method_help = ("the route; auto, the default, runs the first listed: "
                   + "; ".join(f"{q}: {', '.join(r)}"
                               for q, r in routes.ROUTES.items()))

    pc = sub.add_parser("compute", help="compute a single quantity")
    pc.add_argument("quantity", choices=list(routes.ROUTES))
    pc.add_argument("-m", type=int, default=None, help="Stieltjes index m")
    pc.add_argument("-x", type=_parse_number, default=None,
                    help="argument x (decimal or exact p/q)")
    pc.add_argument("-s", type=_parse_number, default=None,
                    help="zeta argument s")
    pc.add_argument("--deriv", type=int, default=0,
                    help="s-derivative order for zeta")
    pc.add_argument("--no-cache", action="store_true")
    pc.add_argument("--cache-dir", default=None,
                    help="cache directory (overrides $STIELTJES_CACHE_DIR)")
    pc.add_argument("--method", default="auto", help=method_help)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser(
        "validate", help="run identity validation suites",
        description="Run identity validation suites at the same time on the "
                    "usable cores: one forked worker process per core, and a "
                    "free worker takes the next suite.  A report passes "
                    "when its two sides agree within twice the request, "
                    "2*10^-digits*max(1, |lhs|, |rhs|), its tolerance.  "
                    "meta.suite_ms is each suite's own time in its worker, "
                    "so its sum can exceed meta.elapsed_ms, the wall time. "
                    "The output does not depend on the order in which "
                    "suites finish.")
    pv.add_argument("--suite", default="all",
                    help="'all' or comma-separated suite names")
    pv.add_argument("--out", default=None, help="write JSON report here")
    pv.add_argument("--json", action="store_true",
                    help="print the report as JSON")
    pv.set_defaults(func=cmd_validate)

    pt = sub.add_parser("table", help="tabulate a quantity over a grid")
    pt.add_argument("quantity", choices=list(routes.ROUTES))
    pt.add_argument("--grid", required=True, help="start:stop:count")
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.add_argument("--out", default=None)
    pt.add_argument("-m", type=int, default=None)
    pt.add_argument("-s", type=_parse_number, default=None)
    pt.add_argument("--deriv", type=int, default=0)
    pt.add_argument("--method", default="auto", help=method_help)
    pt.set_defaults(func=cmd_table)
    for p in (pc, pv, pt):
        p.add_argument("--digits", type=int, default=30,
                       help="target decimal digits (10..200)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
