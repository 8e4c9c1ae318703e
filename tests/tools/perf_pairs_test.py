#!/usr/bin/env python3
"""Verdict tests for tools/perf_pairs.py (ctest PerfPairs.*).

Usage: perf_pairs_test.py PERF_PAIRS_PY CASE

Each case writes two stand-in perfbench binaries to a temporary
directory. Each prints the next of its side's canned results as a
perfbench result line and logs which side ran. The case runs the tool
on them for 10 pairs, then checks its exit status, a line of its
output, and that the sides alternated (parent first in odd pairs) up
to the first unreadable run, where the tool stops.
"""

import json
import os
import subprocess
import sys
import tempfile

PAIRS = 10

# Every end-to-end metric of BENCHMARK.json, at a value both sides share
# unless a case overrides it.
BASE = {"ops_per_s": 400000.0, "wall_s": 1.3, "setup_s": 0.0012,
        "peak_rss_mb": 14.4, "sim.ratio": 1.78, "sim.hit_rate": 0.31}
UNITS = {"ops_per_s": "ops/s", "wall_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "sim.ratio": "x", "sim.hit_rate": "frac"}

FAKE = """#!{python}
import json
import pathlib
d = pathlib.Path(__file__).parent
side = "{side}"
count = d / (side + ".count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
with open(d / "order.log", "a") as f:
    f.write(side + "\\n")
run = json.loads((d / "canned.json").read_text())[side][n]
print("perfbench stand-in, run", n + 1)
print(json.dumps(run))
"""


def result(ops, correct=True, failed=0, **over):
    metrics = dict(BASE, ops_per_s=ops, **over)
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


PARENT = [400e3, 410e3, 395e3, 405e3, 402e3, 398e3, 407e3, 401e3,
          404e3, 399e3]  # quartiles 399.25k / 404.75k: IQR 5.5k


def faster(by):
    return [p + by for p in PARENT]


# name: (parent runs, change runs, claim, wanted exit, wanted output)
CASES = {
    # Every pair won by 20k, far beyond the parent's 5.5k IQR.
    "ClaimMet": (
        [result(v) for v in PARENT], [result(v) for v in faster(20e3)],
        "ops_per_s", 0, "10 of 10 pairs won (need 9.0)"),
    # Nine wins in ten pairs is enough.
    "NineOfTenWinsSuffice": (
        [result(v) for v in PARENT],
        [result(v) for v in faster(20e3)[:9]] + [result(390e3)],
        "ops_per_s", 0, "9 of 10 pairs won (need 9.0)"),
    # Eight wins in ten pairs is not.
    "EightOfTenWinsFail": (
        [result(v) for v in PARENT],
        [result(v) for v in faster(20e3)[:8]] +
        [result(390e3), result(390e3)],
        "ops_per_s", 1, "8 of 10 pairs won (need 9.0), median gap 19000"),
    # Every pair won, but the 2k median gap is inside the parent's IQR.
    "GapInsideParentIqrFails": (
        [result(v) for v in PARENT], [result(v) for v in faster(2e3)],
        "ops_per_s", 1, "median gap 2000 vs parent IQR 5500: NOT MET"),
    # Peak RSS 20% up against its 10% bound, with no claim made.
    "WorseMetricFails": (
        [result(v) for v in PARENT],
        [result(v, peak_rss_mb=17.28) for v in PARENT],
        None, 1, "WORSE"),
    # One change run whose own check failed a pass.
    "FailedRunFails": (
        [result(v) for v in PARENT],
        [result(v) for v in faster(20e3)[:9]] +
        [result(420e3, correct=False, failed=1)],
        "ops_per_s", 1, "FAILED (correct=False, 1 failed)"),
    # A result without its "correct" field is unreadable: exit 2.
    "ResultWithoutCorrectIsUnreadable": (
        [result(v) for v in PARENT],
        [{k: x for k, x in result(v).items() if k != "correct"}
         for v in PARENT],
        None, 2, "pair 1 change: unreadable run"),
    # So is a result line that is JSON but not an object.
    "NonObjectResultIsUnreadable": (
        [result(v) for v in PARENT], [[1, 2]] * PAIRS,
        None, 2, "pair 1 change: unreadable run"),
}


def main():
    tool, case = sys.argv[1], sys.argv[2]
    parent, change, claim, want_exit, want_text = CASES[case]
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "canned.json"), "w") as f:
            json.dump({"parent": parent, "change": change}, f)
        for side in ("parent", "change"):
            path = os.path.join(d, side)
            with open(path, "w") as f:
                f.write(FAKE.format(python=sys.executable, side=side))
            os.chmod(path, 0o755)
        cmd = [sys.executable, tool, "--parent", os.path.join(d, "parent"),
               "--change", os.path.join(d, "change"), "--workload",
               "fig6-morc", "--seconds", "1", "--pairs", str(PAIRS)]
        if claim:
            cmd += ["--claim", claim]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        with open(os.path.join(d, "order.log")) as f:
            order = f.read().split()
    print(proc.stdout)
    print(proc.stderr, file=sys.stderr)
    want_order = []
    for i in range(PAIRS):
        want_order += ["parent", "change"] if i % 2 == 0 else \
            ["change", "parent"]
    if want_exit == 2:
        # The tool stops at the first unreadable run: pair 1's change run.
        want_order = want_order[:2]
    errors = []
    if proc.returncode != want_exit:
        errors.append("exit %d, expected %d" % (proc.returncode, want_exit))
    if want_text not in proc.stdout + proc.stderr:
        errors.append("output lacks %r" % want_text)
    if order != want_order:
        errors.append("run order %s" % order)
    for e in errors:
        print("%s: %s" % (case, e), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
