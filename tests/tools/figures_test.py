#!/usr/bin/env python3
"""End-to-end pins of every morc_sweep figure (ctest Figures.*).

Usage: figures_test.py MORC_SWEEP GOLDEN_DIR CASE

Every case runs morc_sweep at a tiny budget (2000 measured and 4000
warm-up instructions per core) in a temporary directory. The digests
in GOLDEN_DIR/figures_*.sha256 (sha256sum format) pin the report JSON
and stdout of all 18 figures, so any change to a figure's tasks, keys,
labels, metrics or presenter fails here. With MORC_UPDATE_GOLDEN=1 a
digest case rewrites its list instead of comparing.

Cases:
  ReportDigests     `all` at --jobs 4 and at --jobs 1: each report,
                    stdout, --list and --list-schemes against
                    figures_report.sha256.
  TracedMesh        `--telemetry-epoch 100000 --trace-out T mesh` at
                    --jobs 4 and at --jobs 1: mesh.json and T against
                    figures_traced_mesh.sha256.
  CheckpointResume  `fig7 fig14` against one --checkpoint-dir, five
                    times: a first run; a run after each journal was
                    torn inside an entry and every other warm snapshot
                    deleted, as a killed run leaves them, which resumes
                    part of each figure; a run that resumes all of it;
                    a run with the journals removed, which restores the
                    warm snapshots and rebuilds any still missing; and
                    a run with the journals removed and every warm
                    snapshot corrupted, which rejects them. All five
                    match the plain report digests. The directory then
                    holds 56 warm snapshots, and reruns at another
                    MORC_BENCH_INSTR, with --telemetry-epoch and with
                    --trace-out neither resume nor reject and match a
                    sweep without the directory.
  TracedFig7Fig14   `--telemetry-epoch 1000 --trace-out T fig7 fig14`:
                    every run carries a series section and a trace.
  RejectsBadBudget  `table1` exits 1 naming the variable, before any
                    output, for each malformed MORC_BENCH_INSTR or
                    MORC_BENCH_WARMUP, and 0 for good values.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

BUDGET = {"MORC_BENCH_INSTR": "2000", "MORC_BENCH_WARMUP": "4000"}


def sweep(binary, args, env_extra=None, check=True):
    env = dict(os.environ)
    env.update(BUDGET)
    env.update(env_extra or {})
    proc = subprocess.run([binary] + args, env=env, capture_output=True)
    if check and proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"morc_sweep {' '.join(args)} exited "
                         f"{proc.returncode}")
    return proc


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def read_digests(path):
    digests = {}
    with open(path) as f:
        for line in f:
            digest, name = line.split()
            digests[name] = digest
    return digests


def check_digests(path, fresh, what, update):
    """Compare {name: digest} from the run @what with the list at
    @path, or rewrite the list when @update."""
    if update:
        with open(path, "w") as f:
            for name, digest in fresh.items():
                f.write(f"{digest}  {name}\n")
        print(f"updated {path}; re-run without MORC_UPDATE_GOLDEN")
        return 0
    want = read_digests(path)
    bad = [n for n in sorted(set(want) | set(fresh))
           if want.get(n) != fresh.get(n)]
    for n in bad:
        print(f"{n}: got {fresh.get(n)}, pinned {want.get(n)}",
              file=sys.stderr)
    if bad:
        print(f"{what}: {len(bad)} digests differ from {path}; if the "
              "change is intentional, regenerate with "
              "MORC_UPDATE_GOLDEN=1", file=sys.stderr)
        return 1
    print(f"{what}: {len(fresh)} digests match {os.path.basename(path)}")
    return 0


def file_digest(path):
    with open(path, "rb") as f:
        return sha256(f.read())


# Both digest cases run at each of these job counts against one pinned
# list, so the pins also hold the outputs to be jobs-independent. An
# update rewrites the list from the first and checks the rest against it.
JOBS = ("4", "1")
UPDATE = bool(os.environ.get("MORC_UPDATE_GOLDEN"))


def report_digests(binary, golden, tmp):
    failures = 0
    for jobs in JOBS:
        out = os.path.join(tmp, "jobs" + jobs)
        proc = sweep(binary, ["--jobs", jobs, "--out", out, "all"])
        fresh = {name: file_digest(os.path.join(out, name))
                 for name in sorted(os.listdir(out))}
        fresh["stdout"] = sha256(proc.stdout)
        fresh["list"] = sha256(sweep(binary, ["--list"]).stdout)
        fresh["list-schemes"] = sha256(
            sweep(binary, ["--list-schemes"]).stdout)
        failures += check_digests(
            os.path.join(golden, "figures_report.sha256"), fresh,
            f"--jobs {jobs}", UPDATE and jobs == JOBS[0])
    return 1 if failures else 0


def traced_mesh(binary, golden, tmp):
    failures = 0
    for jobs in JOBS:
        out = os.path.join(tmp, "jobs" + jobs)
        trace = os.path.join(tmp, f"trace{jobs}.json")
        sweep(binary, ["--jobs", jobs, "--telemetry-epoch", "100000",
                       "--trace-out", trace, "--out", out, "mesh"])
        fresh = {"mesh.json": file_digest(os.path.join(out, "mesh.json")),
                 "trace.json": file_digest(trace)}
        failures += check_digests(
            os.path.join(golden, "figures_traced_mesh.sha256"), fresh,
            f"--jobs {jobs}", UPDATE and jobs == JOBS[0])
    return 1 if failures else 0


# Reruns against a used --checkpoint-dir under settings that change a
# record: (name, environment, arguments; TRACE is the trace file).
RERUNS = [
    ("budget", {"MORC_BENCH_INSTR": "3000"}, []),
    ("telemetry", {}, ["--telemetry-epoch", "1000"]),
    ("trace", {}, ["--trace-out", "TRACE"]),
]


RESUMING = re.compile(r"\] (\w+): resuming, (\d+)/(\d+) tasks")


def entry_ends(path):
    """Offsets at which the journal entries at @path end (each is a
    snapshot frame: magic, version and endian tag, a u64 payload length
    at offset 16, the payload and a u32 CRC)."""
    with open(path, "rb") as f:
        data = f.read()
    ends, pos = [], 0
    while pos + 24 <= len(data):
        pos += 24 + int.from_bytes(data[pos + 16:pos + 24], "little") + 4
        ends.append(pos)
    return ends


def checkpoint_resume(binary, golden, tmp):
    pinned = read_digests(os.path.join(golden, "figures_report.sha256"))
    ckpt = os.path.join(tmp, "ckpt")
    warm_dir = os.path.join(ckpt, "warm")

    def journals():
        return [os.path.join(ckpt, f) for f in sorted(os.listdir(ckpt))
                if f.endswith(".journal")]

    def kill():
        """Leave what a run killed mid-sweep leaves: each journal cut
        inside an entry, and every other warm snapshot not written."""
        for path in journals():
            cut = os.path.getsize(path) // 2
            if cut in entry_ends(path):
                cut -= 1
            os.truncate(path, cut)
        for f in sorted(os.listdir(warm_dir))[::2]:
            os.remove(os.path.join(warm_dir, f))

    def drop_journals():
        for path in journals():
            os.remove(path)

    def corrupt_warm():
        drop_journals()
        for f in os.listdir(warm_dir):
            with open(os.path.join(warm_dir, f), "r+b") as snap:
                snap.seek(100)
                byte = snap.read(1)[0]
                snap.seek(100)
                snap.write(bytes([byte ^ 0xff]))

    def run(name, args=(), env=None, checkpoint=True):
        """Sweep fig7 and fig14 into tmp/name: (stderr, output digests)."""
        out = os.path.join(tmp, name)
        trace = os.path.join(tmp, name + ".trace.json")
        args = [trace if a == "TRACE" else a for a in args]
        if checkpoint:
            args += ["--checkpoint-dir", ckpt]
        proc = sweep(binary, ["--jobs", "4", "--out", out] + args +
                     ["fig7", "fig14"], env)
        digests = {f: file_digest(os.path.join(out, f))
                   for f in ("fig7.json", "fig14.json")}
        if os.path.exists(trace):
            digests["trace"] = file_digest(trace)
        return proc.stderr.decode(errors="replace"), digests

    # Each run: what is done to the directory before it, how many of
    # each figure's 28 tasks it must resume from the journal ("none",
    # "some" or "all"), and whether it must reject a warm snapshot.
    steps = [
        ("first", None, "none", False),
        ("killed", kill, "some", False),
        ("resumed", None, "all", False),
        ("warm", drop_journals, "none", False),
        ("corrupt", corrupt_warm, "none", True),
    ]
    failures = 0
    for name, prepare, want_resumed, want_rejected in steps:
        if prepare:
            prepare()
        log, digests = run(name)
        resumed = {m[1]: (int(m[2]), int(m[3]))
                   for m in RESUMING.finditer(log)}
        for fig in ("fig7", "fig14"):
            done, total = resumed.get(fig, (0, 28))
            got = ("none" if done == 0 else
                   "all" if done == total else "some")
            if got != want_resumed:
                print(f"{name} run: {fig} resumed {done}/{total} tasks, "
                      f"want {want_resumed}:\n{log}", file=sys.stderr)
                failures += 1
        if ("rejected" in log) != want_rejected:
            want = "lacks" if want_rejected else "has"
            print(f"{name} run: stderr {want} 'rejected':\n{log}",
                  file=sys.stderr)
            failures += 1
        for f, digest in digests.items():
            if digest != pinned[f]:
                print(f"{name} run: {f} differs from the plain sweep",
                      file=sys.stderr)
                failures += 1
    # fig14 attaches two histograms to fig7's 28 points, so the two
    # figures must not share a warm snapshot.
    warm = len(os.listdir(warm_dir))
    if warm != 56:
        print(f"{warm} warm snapshots, want 28 for fig7 and 28 for "
              f"fig14", file=sys.stderr)
        failures += 1
    for name, env, args in RERUNS:
        log, digests = run(name, args, env)
        _, fresh = run(name + "-fresh", args, env, checkpoint=False)
        for word in ("resuming", "rejected"):
            if word in log:
                print(f"{name} rerun: stderr has '{word}':\n{log}",
                      file=sys.stderr)
                failures += 1
        for f in sorted(set(digests) | set(fresh)):
            if digests.get(f) != fresh.get(f):
                print(f"{name} rerun: {f} differs from a sweep without "
                      f"--checkpoint-dir", file=sys.stderr)
                failures += 1
    if failures == 0:
        print(f"{len(steps)} checkpointed runs (killed, resumed, "
              f"warm-restored, rejected) match the plain digests ({warm} "
              f"warm snapshots); {len(RERUNS)} reruns under other "
              f"settings match fresh sweeps")
    return 1 if failures else 0


def traced_fig7_fig14(binary, golden, tmp):
    out = os.path.join(tmp, "out")
    trace = os.path.join(tmp, "trace.json")
    sweep(binary, ["--jobs", "4", "--telemetry-epoch", "1000",
                   "--trace-out", trace, "--out", out, "fig7", "fig14"])
    with open(trace) as f:
        traced = {e["args"]["name"] for e in json.load(f)["traceEvents"]
                  if e.get("name") == "process_name"}
    failures = 0
    for fig in ("fig7", "fig14"):
        with open(os.path.join(out, fig + ".json")) as f:
            runs = json.load(f)["runs"]
        untraced = [r["key"] for r in runs if "series" not in r]
        missing = [r["key"] for r in runs if r["key"] not in traced]
        if untraced or missing:
            print(f"{fig}: {len(untraced)}/{len(runs)} runs without a "
                  f"series section, {len(missing)}/{len(runs)} missing "
                  f"from the trace", file=sys.stderr)
            failures += 1
        else:
            print(f"{fig}: all {len(runs)} runs carry a series and a trace")
    return 1 if failures else 0


BAD_BUDGETS = [
    ("MORC_BENCH_INSTR", "abc"),
    ("MORC_BENCH_INSTR", "0"),
    ("MORC_BENCH_INSTR", "12x"),
    ("MORC_BENCH_INSTR", "-5"),
    ("MORC_BENCH_INSTR", ""),
    ("MORC_BENCH_INSTR", "99999999999999999999"),
    ("MORC_BENCH_WARMUP", "abc"),
    ("MORC_BENCH_WARMUP", "12x"),
    ("MORC_BENCH_WARMUP", "-5"),
]


def rejects_bad_budget(binary, golden, tmp):
    failures = 0
    for var, value in BAD_BUDGETS:
        proc = sweep(binary, ["table1"], {var: value}, check=False)
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 1 or var not in err or proc.stdout:
            print(f"{var}={value!r}: exit {proc.returncode}, stderr "
                  f"{err!r}, {len(proc.stdout)} stdout bytes; want exit "
                  f"1 naming {var} before any output", file=sys.stderr)
            failures += 1
    for good in ({"MORC_BENCH_WARMUP": "0"}, {"MORC_BENCH_INSTR": "1"}):
        proc = sweep(binary, ["table1"], good, check=False)
        if proc.returncode != 0:
            print(f"{good}: exit {proc.returncode}, want 0",
                  file=sys.stderr)
            failures += 1
    if failures == 0:
        print(f"{len(BAD_BUDGETS)} bad budgets rejected, good ones run")
    return 1 if failures else 0


CASES = {
    "ReportDigests": report_digests,
    "TracedMesh": traced_mesh,
    "CheckpointResume": checkpoint_resume,
    "TracedFig7Fig14": traced_fig7_fig14,
    "RejectsBadBudget": rejects_bad_budget,
}


def main():
    binary, golden, case = sys.argv[1], sys.argv[2], sys.argv[3]
    with tempfile.TemporaryDirectory() as tmp:
        return CASES[case](binary, golden, tmp)


if __name__ == "__main__":
    sys.exit(main())
