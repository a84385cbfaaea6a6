#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload score-open --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); spans of traced runs go to
<build>/traces. The last stdout line is the result JSON; the exit code is
nonzero when a correctness check failed.

The metric lists live in BENCHMARK.json only. A traced run reports every
per_layer metric: those of layers the workload never calls read 0. A
metric the driver reports that BENCHMARK.json does not list for the run's
kind, or a missing end-to-end metric, is an error (exit 2).

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(out, targets):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] + targets)


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def complete_metrics(result, trace):
    """Pads a traced result with the per-layer metrics it lacks (value 0).

    Returns the names the driver got wrong: reported but not listed for the
    run's kind, or (untraced) listed but not reported.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    metrics = result["metrics"]
    wrong = sorted(set(metrics) - names)
    for m in listed:
        if m["name"] not in metrics:
            if not trace:
                wrong.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    return wrong


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["score-open", "search-enroll", "fit-hyb"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if args.selftest:
        if not build(out, ["perfbench_test"]):
            return 2
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode

    if not build(out, ["perfbench_driver"]):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    sha, dirty = git_provenance()
    cmd = [os.path.join(out, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", traces, "--git_sha", sha, "--git_dirty", dirty]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(proc.stdout, end="")
        return proc.returncode or 2
    result = json.loads(lines[-1])
    wrong = complete_metrics(result, args.trace)
    if wrong:
        print("perfbench: metrics do not match BENCHMARK.json: " +
              ", ".join(wrong), file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
