#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Usage:
    perf_gate.py CURRENT.json BASELINE.json [--threshold 0.15]
                 [--gate PREFIX] [--reference NAME]

Compares a freshly measured bench_speed report against one checked-in
baseline in bench/baselines/. Absolute times differ across hosts, so
every gated benchmark's cpu_time is first normalized by the same
report's reference benchmark (default BM_FpcLine/min_time:2.000 — the
FPC codec is untouched by the hot paths the gates watch, so the ratio
tracks algorithmic regressions, not machine speed). The gate fails
(exit 1) when any gated benchmark is missing from the current report
or its normalized time exceeds the baseline's by more than the
threshold (default 15%), and exits 2 when the reference is missing or
no baseline benchmark matches the gate prefix.

Regenerate a baseline after an intentional performance change, e.g.
the KV one:
    build/bench/bench_speed --benchmark_filter='^(BM_Kv|BM_FpcLine)' \
        --benchmark_out=bench/baselines/BENCH_kv.json \
        --benchmark_out_format=json
BENCH_touche.json takes '^(BM_Touche|BM_FpcLine)', and
BENCH_compress.json every codec benchmark: '-^(BM_Kv|BM_Touche)'.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Map benchmark name -> cpu_time (ns) from a google-benchmark
    JSON report, keeping only plain iteration entries (no aggregates)."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        out[b["name"]] = float(b["cpu_time"]) * scale
    return out


def main():
    ap = argparse.ArgumentParser(
        description="google-benchmark perf regression gate")
    ap.add_argument("current", help="freshly measured benchmark JSON")
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed normalized regression "
                         "(0.15 = 15%%)")
    ap.add_argument("--gate", default="BM_Lbe",
                    help="gate benchmarks whose name starts with this "
                         "prefix")
    ap.add_argument("--reference", default="BM_FpcLine/min_time:2.000",
                    help="normalization benchmark (must be in both "
                         "reports)")
    args = ap.parse_args()

    cur = load_benchmarks(args.current)
    base = load_benchmarks(args.baseline)

    for name, times in (("current", cur), ("baseline", base)):
        if args.reference not in times:
            print(f"perf gate: reference {args.reference} missing from "
                  f"{name} report", file=sys.stderr)
            return 2
        if times[args.reference] <= 0:
            print(f"perf gate: non-positive reference time in {name} "
                  f"report", file=sys.stderr)
            return 2

    gated = sorted(n for n in base if n.startswith(args.gate))
    if not gated:
        print(f"perf gate: no benchmarks match prefix {args.gate!r} in "
              f"baseline", file=sys.stderr)
        return 2

    failures = []
    print(f"perf gate: normalizing by {args.reference} "
          f"(current {cur[args.reference]:.0f} ns, "
          f"baseline {base[args.reference]:.0f} ns), "
          f"threshold +{args.threshold:.0%}")
    for name in gated:
        if name not in cur:
            failures.append(f"{name}: missing from current report")
            continue
        cur_norm = cur[name] / cur[args.reference]
        base_norm = base[name] / base[args.reference]
        ratio = cur_norm / base_norm
        verdict = "OK"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: normalized time {ratio:.2f}x baseline "
                f"(limit {1.0 + args.threshold:.2f}x)")
        print(f"  {name:<24} {cur[name]:>9.0f} ns  norm {cur_norm:6.2f} "
              f"(baseline {base_norm:6.2f})  {ratio:5.2f}x  {verdict}")

    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
