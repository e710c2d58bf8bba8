#!/usr/bin/env python3
"""Benchmark of the stieltjes package, run from the root of a checkout:

    python3 perfbench/run.py --workload {cli-compute,catalogue,trig-sums}
                             --seed N --seconds S --trace {0,1}

The package is imported from ./src.  Load is a closed loop with one client:
one request at a time, in one process tree, and workloads never overlap.
Every output is checked against mpmath's built-ins (perfbench/oracle.py) or,
for the catalogue, against the verdicts frozen in catalogue_snapshot.json.

With --trace 0 the timed phase runs untraced and the last line of stdout
is a JSON object with the end-to-end metrics of BENCHMARK.json.  With
--trace 1 the same operations run once untraced and once traced, and the
JSON holds the per-layer metrics of the traced pass plus
trace.overhead_frac (traced wall / untraced wall - 1).  The lines before
the JSON give every metric with its unit and sample count, including the
fail and overclaim fractions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import oracle, tracing, workloads  # noqa: E402

CHILD = str(HERE / "child.py")
SNAPSHOT = HERE / "catalogue_snapshot.json"
SETUP_REPEATS = 9
DEADLINE_S = 170  # every child is killed past this point of the run


class Run:
    """Paths, environment and deadline shared by one benchmark run."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.started = time.perf_counter()
        self.work = root / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        # requests always pass --cache-dir; this keeps any stray default
        # cache inside the checkout as well
        self.env["STIELTJES_CACHE_DIR"] = str(self.work / "default-cache")
        self._seq = 0

    def path(self, stem):
        self._seq += 1
        return self.work / f"{self._seq:04d}-{stem}"

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


class Proc:
    def __init__(self, t0, t1, code, stdout, stderr, rss_mb):
        self.t0, self.t1, self.code = t0, t1, code
        self.stdout, self.stderr, self.rss_mb = stdout, stderr, rss_mb

    @property
    def latency(self):
        return self.t1 - self.t0


def spawn(run, cmd):
    """Run one child to completion; its peak RSS comes from wait4."""
    err_path = run.path("stderr.txt")
    if run.remaining() <= 0:
        return Proc(0.0, 0.0, -1, "", "skipped: run deadline passed", 0.0)
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                             env=run.env, cwd=run.root)
        timer = threading.Timer(run.remaining(), p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text() if p.returncode else ""
    return Proc(t0, t1, p.returncode, out.decode(), stderr,
                usage.ru_maxrss / 1024)


def measure_setup(run, workload, ops_path):
    """Median time from spawning a fresh interpreter to the workload ready."""
    cmd = [sys.executable, CHILD, "ready", workload, str(ops_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=run.env,
                             cwd=run.root)
        line = p.stdout.readline().decode().strip()
        t1 = time.perf_counter()
        p.stdout.read()
        p.stdout.close()
        if p.wait(timeout=max(1, run.remaining())) != 0:
            raise RuntimeError("set-up child failed")
        if not Path(line).is_relative_to(run.root / "src"):
            raise RuntimeError(f"stieltjes imported from {line}, not ./src")
        times.append(t1 - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Workload passes.  Each returns a dict with latencies, wall_s, rss_mb,
# per-op outputs and, when traced, the merged span list.
# ---------------------------------------------------------------------------

def _request_pass(run, argvs, traced, cache_dir=None):
    procs, roots, child_spans = [], [], []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if cache_dir is not None:
            argv = argv + ["--cache-dir", str(cache_dir)]
        if traced:
            spans_path = run.path("spans.json")
            cmd = [sys.executable, CHILD, "cli", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "stieltjes.cli", *argv]
        pr = spawn(run, cmd)
        procs.append(pr)
        if traced:
            roots.append(["request", pr.t0, pr.t1, None, i, {}])
            child_spans.append(json.loads(spans_path.read_text())
                               if spans_path.exists() else [])
    wall = time.perf_counter() - start
    return {"procs": procs, "wall_s": wall,
            "latencies": [p.latency for p in procs],
            "rss_mb": max(p.rss_mb for p in procs),
            "spans": tracing.merge(roots, child_spans) if traced else None}


def cli_pass(run, ops, traced):
    out = _request_pass(run, [op["argv"] for op in ops], traced,
                        cache_dir=run.path("cache"))
    failed, claims, overclaims, notes = 0, 0, 0, []
    refs = {}
    for op, pr in zip(ops, out["procs"]):
        try:
            if pr.code != 0:
                raise ValueError(f"exit {pr.code}: {pr.stderr.strip()[-200:]}")
            result = json.loads(pr.stdout)["result"]
            if not result["converged"]:
                raise ValueError("converged: false")
            key = json.dumps([op["quantity"], op["params"], op["digits"]],
                             sort_keys=True)
            if key not in refs:
                refs[key] = oracle.cli_reference(op["quantity"], op["params"],
                                                 op["digits"])
            ok, over = oracle.judge(result["value"], refs[key], op["digits"],
                                    result.get("err_estimate"))
            if over is not None:
                claims += 1
                overclaims += over
                if over:
                    notes.append(f"overclaim: {' '.join(op['argv'])} "
                                 f"claims {result['err_estimate']}")
            if not ok:
                raise ValueError(f"value {result['value']} misses the oracle "
                                 f"{oracle.mp.nstr(refs[key], op['digits'] + 3)}")
        except (ValueError, KeyError) as exc:
            failed += 1
            notes.append(f"FAILED: {' '.join(op['argv'])}: {exc}")
    out.update(attempted=len(ops), failed=failed, claims=claims,
               overclaims=overclaims, notes=notes)
    return out


def catalogue_pass(run, ops, traced):
    out = _request_pass(run, [op["argv"] for op in ops], traced)
    snapshot = json.loads(SNAPSHOT.read_text())["suites"]
    failed, attempted, notes = 0, 0, []
    for op, pr in zip(ops, out["procs"]):
        expected = Counter(tuple(e) for sid in op["suites"]
                           for e in snapshot[sid])
        attempted += sum(expected.values())
        try:
            reports = json.loads(pr.stdout)["reports"]
        except (ValueError, KeyError):
            failed += sum(expected.values())
            notes.append(f"FAILED: validate exit {pr.code}: "
                         f"{pr.stderr.strip()[-200:]}")
            continue
        got = Counter((r["identity"], r.get("x", ""), r.get("meta", ""),
                       r["pass"]) for r in reports)
        for entry in (expected - got) + (got - expected):
            notes.append(f"FAILED: verdict differs from snapshot: {entry}")
        failed += max(sum((expected - got).values()),
                      sum((got - expected).values()))
    out.update(attempted=attempted, failed=failed, claims=0, overclaims=0,
               notes=notes)
    return out


def trig_pass(run, ops, traced):
    ops_path = run.path("ops.json")
    ops_path.write_text(json.dumps(ops))
    res_path = run.path("results.json")
    cmd = [sys.executable, CHILD, "trig", str(ops_path), str(res_path)]
    spans_path = run.path("spans.json") if traced else None
    if traced:
        cmd.append(str(spans_path))
    pr = spawn(run, cmd)
    if pr.code != 0 or not res_path.exists():
        raise RuntimeError(f"trig worker exit {pr.code}: {pr.stderr[-400:]}")
    doc = json.loads(res_path.read_text())
    failed, claims, overclaims, notes = 0, 0, 0, []
    for op, row in zip(ops, doc["results"]):
        label = f"{op['family']} {op['mode']} x={op['x']} s={op['s']}"
        if row["error"]:
            failed += 1
            notes.append(f"FAILED: {label}: {row['error']}")
            continue
        ref = oracle.trig_reference(op["family"], op["mode"], op["x"],
                                    op["s"], op["digits"])
        ok, over = oracle.judge(row["value"], ref, op["digits"],
                                row["err_estimate"])
        claims += 1
        overclaims += over
        if not ok or not row["converged"]:
            failed += 1
            notes.append(f"FAILED: {label}: converged={row['converged']} "
                         f"terms={row['terms_used']} value={row['value'][:30]}")
        elif over:
            notes.append(f"overclaim: {label} claims {row['err_estimate']}")
    spans = json.loads(spans_path.read_text()) if traced else None
    return {"wall_s": doc["wall_s"],
            "latencies": [r["latency_s"] for r in doc["results"]],
            "rss_mb": pr.rss_mb, "spans": spans, "attempted": len(ops),
            "failed": failed, "claims": claims, "overclaims": overclaims,
            "notes": notes}


PASSES = {"cli-compute": cli_pass, "catalogue": catalogue_pass,
          "trig-sums": trig_pass}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
    return ordered[int(k)]


def qualifying_percentile(n):
    """Highest of p50/p75/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def end_to_end(res, setup_s):
    n = len(res["latencies"])
    return {
        "wall_s": res["wall_s"],
        "ops_per_s": res["attempted"] / res["wall_s"],
        "latency_p50_ms": 1000 * statistics.median(res["latencies"]),
        "peak_rss_mb": res["rss_mb"],
        "setup_s": setup_s,
    }, n


def report_lines(workload, seed, ops, res, metrics, units, n):
    lines = [f"workload {workload} seed {seed}: op list of {len(ops)}, "
             f"op-list sha256 {workloads.op_hash(ops)}"]
    for name, value in metrics.items():
        extra = ""
        if name.startswith("latency"):
            extra = f"  (n={n})"
        elif name == "setup_s":
            extra = f"  (median of {SETUP_REPEATS})"
        lines.append(f"  {name:<16s} {value:.6g} {units[name]}{extra}")
    p = qualifying_percentile(n)
    if p and p > 50:
        lines.append(f"  latency_p{p}_ms   "
                     f"{1000 * percentile(res['latencies'], p):.6g} ms  "
                     f"(n={n}, highest percentile with 10 samples beyond)")
    lines.append(f"  fail_frac        {res['failed']}/{res['attempted']}")
    if res["claims"]:
        lines.append(f"  overclaim_frac   {res['overclaims']}/{res['claims']}"
                     "  (actual error above the claimed err_estimate)")
    lines += [f"  {note}" for note in res["notes"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "stieltjes" / "__init__.py").is_file():
        print("error: run from the root of a stieltjes checkout "
              "(./src/stieltjes not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    ops = workloads.GENERATORS[args.workload](args.seed, args.seconds)
    run = Run(root, args.workload, args.seed)
    try:
        ops_path = run.path("ops.json")
        ops_path.write_text(json.dumps(ops))
        setup_s = measure_setup(run, args.workload, ops_path)
        run_pass = PASSES[args.workload]
        res = run_pass(run, ops, traced=False)
        traced = run_pass(run, ops, traced=True) if args.trace else None
    finally:
        run.close()

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans = traced["spans"]
        ok, total_self, remainder = tracing.check_accounting(
            spans, traced["wall_s"])
        values = tracing.layer_metrics(spans, names)
        values["trace.overhead_frac"] = traced["wall_s"] / res["wall_s"] - 1
        attempted = res["attempted"] + traced["attempted"]
        failed = res["failed"] + traced["failed"]
        print(f"workload {args.workload} seed {args.seed} traced: "
              f"{len(spans)} spans; summed self {total_self:.6f} s + "
              f"untraced remainder {remainder:.6f} s = wall "
              f"{traced['wall_s']:.6f} s ({'ok' if ok else 'MISMATCH'})")
        for name in names:
            print(f"  {name:<44s} {values[name]:.6g} {units[name]}")
        for note in res["notes"] + traced["notes"]:
            print(f"  {note}")
        correct = ok and failed == 0
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, n = end_to_end(res, setup_s)
        print("\n".join(report_lines(args.workload, args.seed, ops, res,
                                     values, units, n)))
        attempted, failed = res["attempted"], res["failed"]
        correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
