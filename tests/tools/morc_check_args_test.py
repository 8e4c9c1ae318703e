#!/usr/bin/env python3
"""morc_check parses its numeric options strictly (ctest
MorcCheck.RejectsBadNumbers).

Usage: morc_check_args_test.py MORC_CHECK

Each malformed --ops, --seed, --audit-every or --mesh value must exit 2
with "<option>: bad value" on stderr. Every case also passes a small
valid --ops first, so a checker that accepts the bad value finishes
quickly instead of running a long or endless stream. The valid edge
values must still run and exit 0: --audit-every 0 audits only at the
end, --seed takes 2^64-1, and --mesh takes 1x1.
"""

import subprocess
import sys

# One cheap scheme and a short stream; each case appends its options.
BASE = ["--scheme", "uncompressed", "--ops", "100"]

BAD = [
    ("--ops", "abc"),
    ("--ops", "5e3"),
    ("--ops", "0"),
    ("--ops", ""),
    ("--ops", "0x10"),
    ("--ops", "+5"),
    ("--seed", "7x"),
    ("--seed", "18446744073709551616"),  # 2^64
    ("--audit-every", "x"),
    ("--audit-every", " 8"),
    ("--mesh", "2x2junk"),
    ("--mesh", "junkx2"),
    ("--mesh", "0x2"),
    ("--mesh", "2x65"),
    ("--mesh", "22"),
]

GOOD = [
    (["--audit-every", "0"], "audits=1 "),
    (["--seed", "18446744073709551615"], " OK"),
    (["--mesh", "1x1"], " OK"),
]


def run(binary, args):
    proc = subprocess.run([binary] + BASE + args, capture_output=True,
                          timeout=120)
    return (proc.returncode, proc.stdout.decode(errors="replace"),
            proc.stderr.decode(errors="replace"))


def main():
    binary = sys.argv[1]
    failures = 0
    for option, value in BAD:
        code, _, err = run(binary, [option, value])
        if code != 2 or f"{option}: bad value" not in err:
            print(f"{option} {value!r}: exit {code}, stderr starts "
                  f"{err[:80]!r}; want exit 2 and '{option}: bad value'",
                  file=sys.stderr)
            failures += 1
    for args, want in GOOD:
        code, out, err = run(binary, args)
        if code != 0 or want not in out:
            print(f"{' '.join(args)}: exit {code}, stdout {out!r}, stderr "
                  f"{err[:80]!r}; want exit 0 and {want!r}",
                  file=sys.stderr)
            failures += 1
    if failures == 0:
        print(f"{len(BAD)} bad values rejected, {len(GOOD)} edge values run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
