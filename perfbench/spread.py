#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload gateway-ref-long --runs 10

runs ``perfbench/run.py`` once per seed 1..runs with the ``run_seconds``
of ``BENCHMARK.json``, one run at a time, and prints for each end-to-end
metric its median, its quartiles and the quartile distance as a share of
the median, next to the metric's bound.  A spread above a third of its
bound is flagged, and one above the bound itself is flagged louder.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: "dict[str, list[float]]" = {name: [] for name in bounds}
    for seed in range(1, args.runs + 1):
        cmd = [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            args.workload,
            "--seed",
            str(seed),
            "--seconds",
            str(bench["run_seconds"]),
            "--trace",
            "0",
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        calib = json.loads(lines[0])["machine"]["calibration_s"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {seed}: "
            + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds)
            + f" calibration_s={calib:.4f}",
            flush=True,
        )
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > bounds[name]:
            flag = "  <-- ABOVE BOUND"
        elif spread > bounds[name] / 3:
            flag = "  <-- above bound/3"
        print(
            f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {spread:.4f}  bound {bounds[name]}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
