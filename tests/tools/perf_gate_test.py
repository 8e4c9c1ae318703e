#!/usr/bin/env python3
"""Exit-status tests for tools/perf_gate.py (ctest PerfGate.*).

Usage: perf_gate_test.py PERF_GATE_PY CASE

Each case writes a small baseline/current pair of google-benchmark
JSON reports to a temporary directory, runs the gate on it with its
default gate prefix, threshold and reference, and checks the exit
status.
"""

import json
import os
import subprocess
import sys
import tempfile

REF = "BM_FpcLine/min_time:2.000"

BASELINE = {REF: 100.0, "BM_LbeTrial8": 1000.0, "BM_LbeMeasure": 300.0,
            "BM_CpackLine": 200.0}

# The current host is twice as slow as the baseline's (reference 200 ns
# vs 100 ns); normalization must cancel that.
CASES = {
    # BM_LbeTrial8 at 1.10x (limit 1.15x); the ungated BM_CpackLine at
    # 4.5x must not count.
    "WithinThresholdPasses": (
        {REF: 200.0, "BM_LbeTrial8": 2200.0, "BM_LbeMeasure": 600.0,
         "BM_CpackLine": 1800.0}, 0),
    # BM_LbeTrial8 at 1.20x.
    "RegressionFails": (
        {REF: 200.0, "BM_LbeTrial8": 2400.0, "BM_LbeMeasure": 600.0}, 1),
    # A gated benchmark that stopped running is a failure, not a pass.
    "MissingGatedBenchmarkFails": (
        {REF: 200.0, "BM_LbeTrial8": 2000.0}, 1),
    # The reference under its default-min-time name is not the
    # reference: usage error.
    "MissingReferenceIsUsageError": (
        {"BM_FpcLine": 200.0, "BM_LbeTrial8": 2000.0,
         "BM_LbeMeasure": 600.0}, 2),
}


def write_report(path, times):
    with open(path, "w") as f:
        json.dump({"benchmarks": [
            {"name": name, "run_type": "iteration", "cpu_time": t,
             "time_unit": "ns"} for name, t in times.items()]}, f)


def main():
    gate, case = sys.argv[1], sys.argv[2]
    current, want = CASES[case]
    with tempfile.TemporaryDirectory() as d:
        base_path = os.path.join(d, "baseline.json")
        cur_path = os.path.join(d, "current.json")
        write_report(base_path, BASELINE)
        write_report(cur_path, current)
        got = subprocess.run([sys.executable, gate, cur_path,
                              base_path]).returncode
    if got != want:
        print(f"{case}: perf_gate.py exited {got}, expected {want}",
              file=sys.stderr)
        return 1
    print(f"{case}: exit {got} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
