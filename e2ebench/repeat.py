#!/usr/bin/env python3
"""Steadiness tooling: repeats run.py and summarizes each metric's spread.

    python3 e2ebench/repeat.py --runs 10 --seconds 20 \\
        [--workloads gap_tables,serve_hot,serve_cold] [--seed-base 1] \\
        [--trace 0] [--out results.json]

Run r uses seed seed-base + r. Odd runs take the workloads in reverse
order, so a drift of the machine does not always land on the same
workload. Beside each run's results it records the 1-minute load average
before the run and the share of CPU time stolen by the hypervisor during
it (/proc/stat). On a shared 4-core VM whole runs have drifted together,
every metric slower at once, which points at the machine rather than the
code; those two columns show it.

For each metric the summary gives the median, the quartiles as
statistics.quantiles(values, n=4) computes them, and the spread
(q3 - q1) / median next to the bound BENCHMARK.json sets. A spread above a
third of its bound marks the metric unsteady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_times():
    """(steal, total) jiffies over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    values = [int(v) for v in fields]
    return values[7], sum(values[:8])


def run_once(workload, seed, seconds, trace):
    load = os.getloadavg()[0]
    steal0, total0 = cpu_times()
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    steal1, total1 = cpu_times()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode,
        "load1": load, "wall_s": time.time() - start,
        "steal_pct": 100.0 * (steal1 - steal0) / max(total1 - total0, 1),
        "result": result,
        "stderr": proc.stderr[-500:] if proc.returncode else "",
    }


def summarize(runs, bounds):
    rows = []
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, items in by_workload.items():
        ok = [r["result"] for r in items if r["result"] is not None]
        if not ok:
            rows.append((workload, "(no result)", 0, 0, 0, 0, None, "FAILED"))
            continue
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif spread > bound:
                verdict = "OVER BOUND"
            elif spread > bound / 3:
                verdict = "unsteady"
            else:
                verdict = "steady"
            rows.append((workload, name, median, q1, q3, spread, bound, verdict))
        incorrect = sum(1 for r in ok if not r["correct"])
        if incorrect or len(ok) < len(items):
            rows.append((workload, "correct", len(ok) - incorrect, 0, 0, 0, None,
                         "%d of %d runs failed" % (len(items) - len(ok) + incorrect,
                                                   len(items))))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default="gap_tables,serve_hot,serve_cold")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's record here (JSON)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    runs = []
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            run = run_once(workload, args.seed_base + r, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            brief = " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in (res["metrics"].items() if res else []))
            print("run %2d seed %3d %-11s load1 %.2f steal %.2f%% %s %s" %
                  (r, run["seed"], workload, run["load1"], run["steal_pct"],
                   "ok" if res and res["correct"] else "FAILED", brief), flush=True)
            if run["stderr"]:
                print("   " + run["stderr"].replace("\n", "\n   "), flush=True)

    print("\n%-11s %-28s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload, name, median, q1, q3, spread, bound, verdict in summarize(runs, bounds):
        print("%-11s %-28s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (workload, name, median, q1, q3, spread,
               "" if bound is None else "%.2f" % bound, verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
