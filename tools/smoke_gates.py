#!/usr/bin/env python3
"""Jobs-independence and schema gates of `run_benches.sh --smoke`.

Usage: smoke_gates.py MORC_SWEEP JOBS

Each row of GATES sweeps one figure at two job counts, requires the
listed outputs of both sweeps to be byte-identical, then checks the
schema of the first sweep's outputs. The budget comes from the caller's
MORC_BENCH_INSTR and MORC_BENCH_WARMUP. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "morc.sweep.report/v5"


def check_mesh(d, report):
    # The trace carries log_flush instant events (timestamps are
    # simulated cycles), and the report its series sections.
    with open(os.path.join(d, "trace.json")) as f:
        events = json.load(f)["traceEvents"]
    kinds = {e["name"] for e in events if e.get("ph") == "i"}
    assert "log_flush" in kinds, kinds
    assert any("series" in run for run in report["runs"]), "no series"
    return f"smoke trace OK: {len(events)} events, kinds {sorted(kinds)}"


def check_kvserve(d, report):
    # Per-tenant seeding and task-order assembly; the v4 percentiles.
    runs = report["runs"]
    assert any("percentiles" in run for run in runs), "no percentiles"
    p = next(run["percentiles"] for run in runs if "percentiles" in run)
    assert "p99.9" in p["latency.all"], p
    return f"smoke kv OK: {len(runs)} runs"


def check_lifetime(d, report):
    # Wear charging happens inside each task's simulation, so thread
    # count must not leak into the report; every run carries the v5
    # lifetime section, and every registry scheme is ranked.
    runs = report["runs"]
    assert all("lifetime" in run for run in runs), "run missing lifetime"
    keys = {"cell_bits_written", "cell_bit_flips", "write_bits_per_sec",
            "flips_per_cell_per_sec", "imbalance", "set_variance", "years"}
    assert keys <= set(runs[0]["lifetime"]), runs[0]["lifetime"]
    schemes = {run["labels"]["scheme"] for run in runs}
    assert "Touche" in schemes and "MORC" in schemes, schemes
    return f"smoke lifetime OK: {len(schemes)} schemes ranked"


def read(path):
    with open(path, "rb") as f:
        return f.read()


# figure, second job count (None = the caller's JOBS), extra flags
# ({d} = the sweep's output directory), byte-compared outputs, check.
GATES = [
    ("mesh", 8, ["--telemetry-epoch", "100000",
                 "--trace-out", "{d}/trace.json"],
     ["mesh.json", "trace.json"], check_mesh),
    ("kvserve", None, [], ["kvserve.json"], check_kvserve),
    ("lifetime", 8, [], ["lifetime.json"], check_lifetime),
]


def main():
    sweep, jobs = sys.argv[1], sys.argv[2]
    for fig, second, flags, outputs, check in GATES:
        with tempfile.TemporaryDirectory(prefix="morc_smoke_") as tmp:
            dirs = []
            for j in ("1", str(second) if second else jobs):
                d = os.path.join(tmp, f"run{len(dirs)}")
                cmd = [sweep, "--jobs", j, "--out", d]
                cmd += [flag.format(d=d) for flag in flags] + [fig]
                if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
                    print(f"error: {' '.join(cmd)} failed", file=sys.stderr)
                    return 1
                dirs.append(d)
            for name in outputs:
                a, b = (read(os.path.join(d, name)) for d in dirs)
                if a != b:
                    print(f"error: {fig}: {name} differs between jobs=1 "
                          f"and jobs={second or jobs}", file=sys.stderr)
                    return 1
            with open(os.path.join(dirs[0], fig + ".json")) as f:
                report = json.load(f)
            assert report["schema"] == SCHEMA, report["schema"]
            print(check(dirs[0], report) + ", jobs-independent bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
