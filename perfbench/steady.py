#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command of BENCHMARK.json N times per workload, each
time with another seed, and prints every run's host steal share beside its
metrics, then the median, quartiles and spread of each metric.  The spread
is (q3 - q1) / median with the quartiles of statistics.quantiles(n=4); it
is compared with the metric's bound.  With --sets 2 or more it repeats the
whole set and prints how far each metric's median moved from the first
set's; that movement is what the bound limits between two versions of the
program.  Host steal explains spread that the program did not cause.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload tatp-mix ...] [--trace 1]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HOST_LINE = re.compile(r"^# host steal_frac=(\S+) cpu_util=(\S+)")


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    steal = util = float("nan")
    for line in lines:
        m = HOST_LINE.match(line)
        if m:
            steal, util = float(m.group(1)), float(m.group(2))
    return result, steal, util, wall


def summarize(label, metrics, runs):
    """Prints each metric's median, quartiles and spread over runs and
    returns the medians by metric name."""
    steals = [r[1] for r in runs]
    print(f"{label}: host steal_frac median={statistics.median(steals):.3f} "
          f"min={min(steals):.3f} max={max(steals):.3f}")
    medians = {}
    for m in metrics:
        vals = [r[2][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "NOISY"
        print(f"  {m['name']:36s} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
              f"spread={spread:.4f} bound={bound} {verdict}", flush=True)
        medians[m["name"]] = med
    return medians


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1,
                    help="sets of runs per workload; each set after the first is "
                         "compared with the first")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    # Sets run one after another, so each covers its own spell of the host.
    seed = args.first_seed
    medians = {wl: [] for wl in workloads}
    for k in range(args.sets):
        for wl in workloads:
            runs = []
            for _ in range(args.runs):
                res, steal, util, wall = run_once(bench["command"], wl, seed, args.seconds, args.trace)
                if not res["correct"] or res["failed"]:
                    raise SystemExit(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                runs.append((seed, steal, res["metrics"]))
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics[:12])
                print(f"{wl} set={k + 1} seed={seed} wall_s={wall:.1f} steal_frac={steal:.3f} "
                      f"cpu_util={util:.3f} {vals}", flush=True)
                seed += 1
            medians[wl].append(summarize(f"{wl} set {k + 1}", metrics, runs))
    if args.sets < 2:
        return
    # How far each later set's median moved from the first set's, in the
    # metric's worse direction; the bound applies to this movement.
    for wl in workloads:
        print(f"{wl}: set medians against set 1")
        for m in metrics:
            first = medians[wl][0][m["name"]]
            for k, later in enumerate(medians[wl][1:], start=2):
                moved = (later[m["name"]] - first) / first if first else 0.0
                worse = moved if m["better"] == "lower" else -moved
                bound = m.get("bound")
                verdict = "" if bound is None else "ok" if worse <= bound else "WORSE"
                print(f"  {m['name']:36s} set {k}: moved {moved:+.4f} (worse by {worse:+.4f}) "
                      f"bound={bound} {verdict}", flush=True)


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    main()
