#!/usr/bin/env python3
"""Perf-regression gate: one bench_speed run against one baseline.

Usage:
    perf_gate.py CURRENT.json BASELINE.json

CURRENT.json is one unfiltered run of build/bench/bench_speed with
--benchmark_out_format=json. BASELINE.json is
bench/baselines/bench_speed.json, the unedited output of this command
at the code it gates; re-baselining is running it again:

    build/bench/bench_speed --benchmark_repetitions=20 \\
        --benchmark_enable_random_interleaving=true \\
        --benchmark_context=commit=$(git describe --always --dirty) \\
        --benchmark_out=bench/baselines/bench_speed.json \\
        --benchmark_out_format=json

Interleaving spreads each benchmark's repetitions over the whole
capture, so their spread includes the host's drift over minutes, not
only back-to-back noise. google-benchmark's "context" block records
the host, CPU and date of the capture, and commit= the code.

Every benchmark in the baseline is gated. Each one's ratio is its
current cpu_time over the median of its baseline repetitions. CURRENT
may come from another host, so the ratios are divided by the host
factor, their median over all benchmarks: a regression has to slow half
of the benchmarks before it moves that factor. A benchmark fails when
its normalized ratio exceeds its limit, MARGIN times the largest of its
baseline repetitions over their median. MARGIN was chosen from
separate runs of unchanged and of deliberately slowed code on the
capture host (EXPERIMENTS.md, "One perf gate").

Exit status: 0 when every benchmark is within its limit; 1 when one is
over it, a baselined benchmark is missing from CURRENT, or CURRENT holds
a benchmark the baseline lacks (baseline it first); 2 when a report
cannot be read or a baselined benchmark has fewer than two repetitions
to take a limit from.
"""

import json
import statistics
import sys

MARGIN = 1.3


def load_times(path):
    """Map benchmark name -> its cpu_times (ns), one per repetition,
    from a google-benchmark JSON report; aggregates are skipped."""
    with open(path) as f:
        report = json.load(f)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    out = {}
    for b in report["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        t = float(b["cpu_time"]) * scale[b.get("time_unit", "ns")]
        if t <= 0:
            raise ValueError(f"{b['name']}: non-positive cpu_time")
        out.setdefault(b["name"], []).append(t)
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        cur = load_times(sys.argv[1])
        base = load_times(sys.argv[2])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"perf gate: cannot read report: {e!r}", file=sys.stderr)
        return 2
    thin = sorted(n for n, ts in base.items() if len(ts) < 2)
    if not base or thin:
        print(f"perf gate: baseline needs two or more repetitions of "
              f"every benchmark to take limits from; "
              f"{', '.join(thin) or 'it has none'}", file=sys.stderr)
        return 2

    failures = [f"{n}: missing from the current run"
                for n in sorted(base.keys() - cur.keys())]
    failures += [f"{n}: not in the baseline; re-baseline to gate it"
                 for n in sorted(cur.keys() - base.keys())]
    centre = {n: statistics.median(ts) for n, ts in base.items()}
    ratio = {n: statistics.median(cur[n]) / centre[n]
             for n in base if n in cur}
    if ratio:
        host = statistics.median(ratio.values())
        print(f"perf gate: host factor {host:.3f} (median ratio to "
              f"baseline), margin {MARGIN}")
        for n in sorted(ratio):
            norm = ratio[n] / host
            limit = MARGIN * max(base[n]) / centre[n]
            verdict = "OK"
            if norm > limit:
                verdict = "REGRESSION"
                failures.append(f"{n}: {norm:.2f}x baseline after the "
                                f"host factor, limit {limit:.2f}x")
            print(f"  {n:<40} {norm:5.2f}x  limit {limit:4.2f}x  "
                  f"{verdict}")

    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
