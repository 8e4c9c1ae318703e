#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, judged by the win rule.

Usage:
    perf_pairs.py --parent BIN --change BIN --workload W [--seed 1]
                  [--seconds 10] [--pairs 10] [--claim METRIC]

Runs N pairs of two perfbench binaries (the parent commit's and the
change's) on one workload, seed and run length, untraced (--trace 0).
Pair 1 runs the parent first, pair 2 the change first, and so on, so a
host that speeds up or slows down over time favours neither side.
Each binary's last stdout line is its result object.

Prints every run, then for each end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the change's median relative to the
parent's, and the pairs the change won (ties count for neither). A
metric whose change median is worse than the parent's by more than its
benchmark bound reads WORSE; one whose parent quartiles alone span more
than the bound reads unresolved, unless every change run beats every
parent run.

--claim METRIC applies the win rule for a claimed gain: the change wins
at least nine tenths of the pairs, and its median beats the parent's by
more than the parent's interquartile range.

Exit status: 0 when every run is correct with no failed pass, no metric
reads WORSE and the claim (if any) is met; 1 otherwise; 2 on bad usage
or a run whose output cannot be read.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(binary, args):
    """One perfbench run: its result object (the last stdout line)."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (binary, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile), interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, higher):
    """True when value a beats value b."""
    return a > b if higher else a < b


def judge(metric, parent, change, pairs):
    """Summary numbers and verdict of one metric over the pairs."""
    higher = metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, higher) for p, c in pairs)
    losses = sum(better(p, c, higher) for p, c in pairs)
    rel = (cm - pm) / pm if pm else 0.0
    worse_by = -rel if higher else rel
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    every_better = all(better(c, p, higher)
                       for c in change for p in parent)
    if worse_by > metric["bound"]:
        verdict = "WORSE"
    elif spread > metric["bound"] and not every_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "rel": rel,
            "wins": wins, "losses": losses, "iqr": p3 - p1,
            "gap": cm - pm if higher else pm - cm, "verdict": verdict}


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(
        description="alternating parent/change perfbench pairs")
    ap.add_argument("--parent", required=True, help="parent perfbench")
    ap.add_argument("--change", required=True, help="change perfbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="end-to-end metric claimed to improve")
    opt = ap.parse_args()
    if opt.pairs < 1 or opt.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    names = [m["name"] for m in metrics]
    if opt.claim and opt.claim not in names:
        ap.error("--claim %s is not an end-to-end metric" % opt.claim)

    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", "%g" % opt.seconds, "--trace", "0"]
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(opt.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            binary = opt.parent if side == "parent" else opt.change
            try:
                result = run_once(binary, args)
                values = {n: float(result["metrics"][n]["value"])
                          for n in names}
                correct, failed = result["correct"], result["failed"]
            except (RuntimeError, ValueError, KeyError, TypeError) as e:
                print("pair %d %s: unreadable run: %s" % (i + 1, side, e),
                      file=sys.stderr)
                return 2
            good = correct and failed == 0
            ok = ok and good
            runs[side].append(values)
            print("pair %2d %-6s %s %s" % (
                i + 1, side, " ".join("%s=%s" % (n, fmt(values[n]))
                                      for n in names),
                "correct" if good else
                "FAILED (correct=%s, %s failed)" % (correct, failed)),
                flush=True)

    print("\n%s seed %d, %g s, %d pairs (parent | change: median "
          "[q1, q3])" % (opt.workload, opt.seed, opt.seconds, opt.pairs))
    claim = None
    for m in metrics:
        n = m["name"]
        parent = [r[n] for r in runs["parent"]]
        change = [r[n] for r in runs["change"]]
        j = judge(m, parent, change, list(zip(parent, change)))
        ok = ok and j["verdict"] != "WORSE"
        print("%-13s %s [%s, %s] | %s [%s, %s]  %+.2f%%  wins %d/%d "
              "(losses %d)  %s" % (
                  n, fmt(j["parent"][1]), fmt(j["parent"][0]),
                  fmt(j["parent"][2]), fmt(j["change"][1]),
                  fmt(j["change"][0]), fmt(j["change"][2]),
                  100 * j["rel"], j["wins"], opt.pairs, j["losses"],
                  j["verdict"]))
        if n == opt.claim:
            claim = j
    if claim:
        met = claim["wins"] >= 0.9 * opt.pairs and claim["gap"] > claim["iqr"]
        ok = ok and met
        print("claim %s: %d of %d pairs won (need %.1f), median gap %s vs "
              "parent IQR %s: %s" % (
                  opt.claim, claim["wins"], opt.pairs, 0.9 * opt.pairs,
                  fmt(claim["gap"]), fmt(claim["iqr"]),
                  "met" if met else "NOT MET"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
