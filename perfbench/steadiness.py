#!/usr/bin/env python3
"""Steadiness check: runs the benchmark over several seeds per workload.

    python3 perfbench/steadiness.py --seeds 1-10 --out runs-a.json
    python3 perfbench/steadiness.py --seeds 1-10 --out runs-b.json
    python3 perfbench/steadiness.py --compare runs-a.json runs-b.json

Run from the repository root. For each workload and end-to-end metric of
BENCHMARK.json it prints the median of the runs and their spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. A spread above the metric's bound is marked
FAIL; above a third of the bound, WIDE. --compare marks
each metric whose second median is worse than the first by more than the
bound. The exit code is nonzero when any run fails or any mark is FAIL.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def summarize(spec, runs):
    ok = True
    for workload, by_seed in runs.items():
        print(f"{workload}  ({len(by_seed)} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [m[name] for m in by_seed.values()]
            median, share = spread(values)
            mark = "ok"
            if share > bound / 3:
                mark = "WIDE"
            if share > bound:
                mark = "FAIL"
                ok = False
            print(f"  {name:16s} median {median:12.4f} {metric['unit']:6s}"
                  f" spread {share:7.4f}  bound {bound:5.3f}  {mark}")
    return ok


def compare(spec, first, second):
    ok = True
    for workload in first:
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(m[name] for m in first[workload].values())
            b = statistics.median(m[name] for m in second[workload].values())
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            mark = "FAIL" if worse > bound else "ok"
            ok = ok and mark == "ok"
            print(f"  {name:16s} {a:12.4f} -> {b:12.4f}  worse by "
                  f"{worse:+.4f} (bound {bound})  {mark}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", help="write every run's metrics here")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        return 0 if compare(spec, first, second) else 1

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    runs = {}
    failed = False
    for workload in workloads:
        runs[workload] = {}
        for seed in parse_seeds(args.seeds):
            metrics = run_once(spec, workload, seed)
            if metrics is None:
                print(f"{workload} seed {seed}: run FAILED", file=sys.stderr)
                failed = True
                continue
            runs[workload][seed] = metrics
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in metrics.items()), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    ok = summarize(spec, {w: r for w, r in runs.items() if len(r) >= 2})
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
