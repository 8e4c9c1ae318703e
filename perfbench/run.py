#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-morc --seed 1 --seconds 30 --trace 0

The binary and the simulator libraries it links are built with CMake
(RelWithDebInfo, the repository's default) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later runs rebuild incrementally. Its output is passed
through, so the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Its metric names and units
are checked against BENCHMARK.json before this script exits 0. Traced
runs (--trace 1) also write the sampled spans to
<build dir>/spans/<workload>-seed<seed>.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(bdir):
    """Configure once, then build the binary (a no-op when up to date)."""
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "build.ninja").exists() and not (bdir / "Makefile").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)


def check_result(line, trace):
    """Errors in the binary's result line, judged against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    metrics = result.get("metrics", {})
    for name, m in metrics.items():
        if declared.get(name) != m.get("unit"):
            errors.append("metric %s (%s) is not declared so" %
                          (name, m.get("unit")))
    missing = sorted(set(declared) - set(metrics))
    diverged = trace and metrics.get("bench.mirror_exact", {}).get("value") == 0
    if missing and diverged:
        print("perfbench: mirror diverged, per-layer timings withheld",
              file=sys.stderr)
    elif missing:
        errors.append("missing metrics %s" % missing)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3

    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        (bdir / "spans").mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(bdir / "spans" / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        errors = check_result(lines[-1], args.trace) if lines else ["no output"]
    except (ValueError, KeyError, OSError) as e:
        errors = ["unreadable result: %s" % e]
    for e in errors:
        print("perfbench: %s" % e, file=sys.stderr)
    return 5 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
