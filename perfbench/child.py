"""Processes the harness spawns (the package is imported from ./src).

    child.py ready <workload> [<ops.json>]
        Import what the workload needs, build its inputs, print the
        package location and exit: the set-up the harness times.
    child.py cli <spans.json> <stieltjes CLI arguments...>
        One traced CLI request: wrap every layer, run stieltjes.cli.main,
        write the spans.  Untraced requests run `python -m stieltjes.cli`.
    child.py trig <ops.json> <out.json> [<spans.json>]
        The trig-sums worker: time one kernels.sum_trig_averaged call per
        operation, traced when a spans file is given.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def _trig_inputs(ops):
    """(coeff, mode, x, odd_multiples) per op, x and s at 400 bits."""
    from mpmath import mp, mpf
    from perfbench.oracle import parse

    coeffs = {
        "recip": lambda s: (lambda n: mpf(1) / n),
        "logn": lambda s: (lambda n: mp.log(n) / n),
        "log1p": lambda s: (lambda n: mp.log(1 + mpf(1) / n)),
        "power": lambda s: (lambda n: (2 * mp.pi * n) ** (s - 1)),
    }
    out = []
    with mp.workprec(400):
        for op in ops:
            s = parse(op["s"]) if op["s"] else None
            out.append((coeffs[op["family"]](s), op["mode"], parse(op["x"]),
                        op["family"] == "log1p"))
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def ready(workload, ops_path=None):
    import stieltjes
    if workload == "trig-sums":
        from stieltjes import kernels  # noqa: F401
        _trig_inputs(_load(ops_path))
    else:
        import stieltjes.cli  # noqa: F401
    print(os.path.abspath(stieltjes.__file__), flush=True)


def traced_cli(spans_path, argv):
    rec = tracing.Recorder()
    tracing.install(rec)
    from stieltjes import cli
    main = rec.wrap("cli.main", cli.main)
    try:
        code = main(argv)
    finally:
        rec.write(spans_path)
    return code


def trig_worker(ops_path, out_path, spans_path=None):
    from mpmath import mp
    from stieltjes import kernels
    from stieltjes.core import PrecisionConfig

    rec = None
    if spans_path:
        rec = tracing.Recorder()
        tracing.install(rec)
    ops = _load(ops_path)
    inputs = _trig_inputs(ops)
    results = []
    start = time.perf_counter()
    for i, (op, (coeff, mode, x, odd)) in enumerate(zip(ops, inputs)):
        if rec:
            rec.request = i
        cfg = PrecisionConfig(digits=op["digits"])
        t0 = time.perf_counter()
        try:
            res = kernels.sum_trig_averaged(coeff, mode, x, cfg,
                                            odd_multiples=odd)
            row = {"value": mp.nstr(res.value, 50),
                   "err_estimate": mp.nstr(res.err_estimate, 5),
                   "terms_used": res.terms_used,
                   "converged": bool(res.converged), "error": None}
        except Exception as exc:  # the op fails; the stream goes on
            row = {"error": f"{type(exc).__name__}: {exc}"}
        row["latency_s"] = time.perf_counter() - t0
        results.append(row)
    wall = time.perf_counter() - start
    with open(out_path, "w") as fh:
        json.dump({"results": results, "wall_s": wall}, fh)
    if rec:
        rec.write(spans_path)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "ready":
        ready(*rest)
    elif mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    elif mode == "trig":
        trig_worker(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
