#!/usr/bin/env python3
"""Exit-status tests for tools/perf_gate.py (ctest PerfGate.*).

Usage: perf_gate_test.py PERF_GATE_PY CASE

Each case writes a canned baseline in bench_speed's repetitions format
(each repetition an iteration entry, then google-benchmark's
aggregates) and a current run, runs the gate on the pair, and checks
its exit status and the benchmarks it flags.
"""

import json
import os
import subprocess
import sys
import tempfile

# Baseline repetitions per benchmark, as multiples of its median; its
# limit is MARGIN times the largest. BM_KvServeMorc repeats exactly, so
# its limit is MARGIN, and one repetition of BM_LbeTrial8 ran twice as
# long, so its limit is 2 * MARGIN.
TIGHT = [1.0] * 5
USUAL = [0.95, 1.0, 1.0, 1.05, 1.1]
NOISY = [0.9, 1.0, 1.0, 1.1, 2.0]
BASELINE = {"BM_LbeTrial8": (900.0, NOISY), "BM_CpackLine": (150.0, USUAL),
            "BM_FpcLine/min_time:2.000": (180.0, USUAL),
            "BM_KvServeMorc/min_time:2.000": (20000.0, TIGHT),
            "BM_ToucheInsert/min_time:2.000": (800.0, USUAL)}


def run(host, **slower):
    """A current run on a host @p host times as slow as the baseline's,
    each benchmark named in @p slower (up to any '/') slower still by
    its factor."""
    return {n: c * host * slower.get(n.split("/")[0], 1.0)
            for n, (c, _) in BASELINE.items()}


# Case: (current run, baseline repetitions, exit status, flagged).
CASES = {
    "WithinLimitsPasses": (
        run(2.0, BM_CpackLine=1.05, BM_ToucheInsert=0.9), 5, 0, []),
    # Both at 2.1x: over BM_KvServeMorc's limit and under BM_LbeTrial8's
    # for any MARGIN below 2.1.
    "OneOverItsLimitFails": (
        run(2.0, BM_KvServeMorc=2.1, BM_LbeTrial8=2.1), 5, 1,
        ["BM_KvServeMorc/min_time:2.000"]),
    "MissingBenchmarkFails": (
        {n: t for n, t in run(1.0).items() if n != "BM_CpackLine"}, 5, 1,
        []),
    "UnbaselinedBenchmarkFails": (dict(run(1.0), BM_New=100.0), 5, 1, []),
    # One repetition per benchmark leaves no spread to take limits from.
    "SingleRepetitionBaselineIsUsageError": (run(1.0), 1, 2, []),
}


def entry(name, t, run_type="iteration", **extra):
    return dict(name=name, run_type=run_type, iterations=1000,
                real_time=t, cpu_time=t, time_unit="ns", **extra)


def baseline(repetitions):
    benches = []
    for name, (c, spread) in BASELINE.items():
        benches += [entry(name, c * s, run_name=name,
                          repetitions=repetitions, repetition_index=i)
                    for i, s in enumerate(spread[:repetitions])]
        if repetitions > 1:
            benches += [entry(f"{name}_{agg}", c, "aggregate",
                              run_name=name, aggregate_name=agg)
                        for agg in ("mean", "median", "stddev", "cv")]
    return {"context": {"host_name": "test", "commit": "0000000"},
            "benchmarks": benches}


def main():
    gate, case = sys.argv[1], sys.argv[2]
    current, reps, want, want_flagged = CASES[case]
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, "current.json"),
                 os.path.join(d, "baseline.json")]
        for path, report in zip(paths, [
                {"benchmarks": [entry(n, t) for n, t in current.items()]},
                baseline(reps)]):
            with open(path, "w") as f:
                json.dump(report, f)
        proc = subprocess.run([sys.executable, gate, *paths],
                              capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    flagged = [line.split()[0] for line in proc.stdout.splitlines()
               if line.endswith("REGRESSION")]
    if proc.returncode != want or flagged != want_flagged:
        print(f"{case}: perf_gate.py exited {proc.returncode} flagging "
              f"{flagged}; expected {want} flagging {want_flagged}",
              file=sys.stderr)
        return 1
    print(f"{case}: exit {want} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
