#!/usr/bin/env python3
"""Run one servebench workload on several seeds and report each metric's
median and quartile spread.

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4). Where BENCHMARK.json at
the repository root gives the metric a bound, the bound is shown next
to the spread.

Usage, from the repository root:
    python3 servebench/spread.py --workload zipf_hot --seeds 1-10 [--trace 0] [--seconds 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for s in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(s),
            "--seconds", str(seconds), "--trace", a.trace,
        ]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {s}: exit code {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {s}: correct={res['correct']} failed={res['failed']}")
        print(f"seed {s}: attempted {res['attempted']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} {med:14.6g} {spread:8.3f} {bound if bound else '':>6}{flag}")
        if a.values:
            print("    " + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
