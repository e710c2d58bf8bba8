#!/usr/bin/env python3
"""Freeze the catalogue verdicts the benchmark compares against.

    python3 perfbench/snapshot.py   (from the root of a checkout)

Runs `stieltjes validate --suite <id> --json --digits 20` once per suite
and writes perfbench/catalogue_snapshot.json mapping every suite id to its
sorted (identity, x, meta, pass) list.  Expected failures (the
paper-discrepancy reports) are frozen like any other verdict.  Rerun only
when a change is meant to alter verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import CATALOGUE_DIGITS  # noqa: E402


def main():
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ids = subprocess.run(
        [sys.executable, "-c",
         "from stieltjes import suites; print(' '.join(suites.SUITES))"],
        env=env, check=True, capture_output=True, text=True).stdout.split()
    out = {}
    for sid in ids:
        proc = subprocess.run(
            [sys.executable, "-m", "stieltjes.cli", "validate", "--suite", sid,
             "--json", "--digits", str(CATALOGUE_DIGITS)],
            env=env, capture_output=True, text=True)
        reports = json.loads(proc.stdout)["reports"]
        out[sid] = sorted([r["identity"], r.get("x", ""), r.get("meta", ""),
                           r["pass"]] for r in reports)
        print(f"{sid}: {len(reports)} reports, exit {proc.returncode}")
    doc = {"digits": CATALOGUE_DIGITS, "suites": out}
    (HERE / "catalogue_snapshot.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
