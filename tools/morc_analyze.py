#!/usr/bin/env python3
"""morc_analyze: concurrency & determinism static analysis for MORC.

The whole point of this reproduction is byte-identical results across
runs, hosts, and --jobs counts, and the road to the parallel mesh
engine (ROADMAP item 2) adds locking to defend. This tool makes the
hazard classes lint-time errors:

  unordered-iteration-escape  loops over std::unordered_{map,set} on
                              report/stats/audit/snapshot/serialization
                              paths must go through util::sortedView()
  nondeterminism-source       ambient randomness, host-clock reads, and
                              pointer-keyed ordered containers in src/
  raw-sync                    std::mutex/std::thread & friends outside
                              src/util/sync.hh (use the annotated
                              morc::sync wrappers)
  snapshot-completeness       classes with save/restore methods or a
                              snapshot walk whose data members are
                              mentioned in none of them (the "added a
                              field, forgot the snapshot" bug class)
  bare-assert                 assert() in src/ vanishes under NDEBUG;
                              use MORC_CHECK from check/check.hh

Frontend: translation units come from the build's
compile_commands.json when present (plus all headers under src/), else
a source-tree glob. Analysis itself is a comment/string-aware lexical
pass with lightweight structure recovery (function spans, class member
tables); when the libclang Python bindings are importable they are
used to confirm file discovery, but the checks do not require them, so
the gate runs identically on a container with only g++.

Suppressions: a finding is silenced by a comment on the same line or
the line directly above:

    // morc-analyze: allow(<check>[, <check>...]) <reason>

Every suppression should carry a reason; DESIGN.md §12 documents the
policy. --self-test runs the fixture suite under tests/analyze/ and
diffs the check registry against fixtures/checks.txt, so deleting a
check (or silently breaking one) fails ctest.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import glob
import json
import os
import re
import sys

# ---------------------------------------------------------------------
# Source model: comment/string stripping + structure recovery
# ---------------------------------------------------------------------

ALLOW_RE = re.compile(r"morc-analyze:\s*allow\(([^)]*)\)")

UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Function-name prefixes that mark a serialization/report escape path
# outside the always-in-scope directories.
ESCAPE_FN_RE = re.compile(
    r"^(save|restore|serialize|deserialize|audit|report|dump|export|"
    r"write|print|json|summar|snapshot|chrome)", re.IGNORECASE)

# Directories whose every function is an escape path.
ESCAPE_DIRS = ("src/stats/", "src/sweep/", "src/snapshot/", "src/check/")

# Files allowed to name raw synchronization primitives.
RAW_SYNC_ALLOWED = ("src/util/sync.hh",)

SAVE_METHODS = {"save", "saveState"}
RESTORE_METHODS = {"restore", "restoreState", "load"}
# The one layout list both entry points run (snapshot/snapshot.hh).
WALK_METHODS = {"walk"}

CXX_KEYWORDS = {
    "if", "for", "while", "switch", "return", "else", "do", "new",
    "delete", "sizeof", "alignof", "case", "goto", "throw", "catch",
    "try", "static_assert", "using", "typedef", "template", "typename",
    "class", "struct", "enum", "union", "namespace", "public",
    "private", "protected", "friend", "operator", "const", "constexpr",
    "static", "inline", "virtual", "explicit", "noexcept", "override",
    "final", "auto", "void", "bool", "char", "int", "unsigned", "long",
    "short", "float", "double", "true", "false", "nullptr", "this",
    "break", "continue", "default", "requires", "co_return",
}


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments_and_strings(text):
    """Return (code, allow_by_line) where `code` is the translation
    unit with comments removed and string/char literal contents blanked
    (newlines preserved, so offsets map 1:1 to the original), and
    allow_by_line maps 1-based line numbers to the set of check names
    allowed by a morc-analyze suppression comment on that line."""
    out = []
    allow = {}
    i, n = 0, len(text)
    line = 1

    def record_allow(comment, at_line):
        for m in ALLOW_RE.finditer(comment):
            names = {c.strip() for c in m.group(1).split(",") if c.strip()}
            allow.setdefault(at_line, set()).update(names)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            record_allow(text[i:j], line)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            comment = text[i:j + 2]
            # A block comment applies where it *ends* (it may hug the
            # code line after a multi-line explanation).
            record_allow(comment, line + comment.count("\n"))
            for ch in comment:
                if ch == "\n":
                    out.append("\n")
                    line += 1
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if text[i] == "\\":
                    out.append(" ")
                    i += 2
                    continue
                if text[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                if text[i] == "\n":  # unterminated (raw string etc.)
                    out.append("\n")
                    line += 1
                    i += 1
                    break
                out.append(" ")
                i += 1
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), allow


class SourceFile:
    """One analyzed file: stripped code plus recovered structure."""

    def __init__(self, path, display_path, text=None):
        self.path = path
        self.display = display_path
        raw = text if text is not None else open(
            path, encoding="utf-8", errors="replace").read()
        self.raw = raw
        self.code, self.allow = strip_comments_and_strings(raw)
        self.lines = self.code.split("\n")
        self.unordered_names = self._collect_unordered_names()
        self.functions = self._collect_functions()

    # -- unordered declarations -------------------------------------
    def _collect_unordered_names(self):
        """Names declared with an unordered container type: members,
        locals, parameters, and functions returning (refs to) one."""
        names = set()
        for m in UNORDERED_RE.finditer(self.code):
            j = self.code.find("<", m.end())
            if j < 0:
                continue
            depth, k = 1, j + 1
            while k < len(self.code) and depth > 0:
                if self.code[k] == "<":
                    depth += 1
                elif self.code[k] == ">":
                    depth -= 1
                k += 1
            # after the closing '>': cv/ref/ptr junk, then declarators
            tail = self.code[k:k + 200]
            for im in IDENT_RE.finditer(tail):
                word = im.group(0)
                if word in ("const", "volatile", "mutable"):
                    continue
                names.add(word)
                break
        return names

    # -- function spans ---------------------------------------------
    def _collect_functions(self):
        """Best-effort (name, start_offset, end_offset) for every
        function/method definition, found by matching `name (...)
        [stuff] {` before a top-level-ish brace."""
        funcs = []
        code = self.code
        for m in re.finditer(r"([A-Za-z_~][A-Za-z0-9_]*)\s*\(", code):
            name = m.group(1)
            if name in CXX_KEYWORDS:
                continue
            # find the matching ')'
            depth, k = 1, m.end()
            while k < len(code) and depth > 0:
                if code[k] == "(":
                    depth += 1
                elif code[k] == ")":
                    depth -= 1
                k += 1
            if depth != 0:
                continue
            # skip qualifiers between ')' and '{': const noexcept
            # override -> Type, template junk; bail at ';' (declaration)
            t = k
            while t < len(code):
                ch = code[t]
                if ch == "{":
                    break
                if ch in ";=":  # declaration or `= default/delete`
                    t = -1
                    break
                if ch == ")" or ch == "(":
                    # e.g. noexcept(...)  — skip balanced parens
                    if ch == "(":
                        d2 = 1
                        t += 1
                        while t < len(code) and d2 > 0:
                            if code[t] == "(":
                                d2 += 1
                            elif code[t] == ")":
                                d2 -= 1
                            t += 1
                        continue
                t += 1
            if t < 0 or t >= len(code):
                continue
            # match the function body braces
            depth, b = 1, t + 1
            while b < len(code) and depth > 0:
                if code[b] == "{":
                    depth += 1
                elif code[b] == "}":
                    depth -= 1
                b += 1
            if depth == 0:
                funcs.append((name, t, b))
        return funcs

    def enclosing_function(self, offset):
        """Innermost recovered function containing `offset`."""
        best = None
        for name, start, end in self.functions:
            if start <= offset < end:
                if best is None or start > best[1]:
                    best = (name, start, end)
        return best[0] if best else None

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1

    def allowed(self, line, check):
        for probe in (line, line - 1):
            if check in self.allow.get(probe, set()):
                return True
        return False


# ---------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------

CHECKS = {}


def check(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


def _in_src(sf):
    return sf.display.startswith("src/")


def _in_bench(sf):
    return sf.display.startswith("bench/")


# -- 1. unordered-iteration-escape ------------------------------------

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_CALL_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_:.\->]*)\s*\.\s*(?:begin|cbegin)\s*\(\s*\)")


def _last_ident(expr):
    """Last identifier component of a range expression: `c.versions`
    -> versions, `sampler_.freqs()` -> freqs, `*map_` -> map_."""
    expr = expr.strip()
    expr = re.sub(r"\(\s*\)\s*$", "", expr)  # trailing call parens
    ids = IDENT_RE.findall(expr)
    return ids[-1] if ids else None


@check("unordered-iteration-escape")
def check_unordered_iteration(sf, ctx):
    if not _in_src(sf):
        return
    always = any(sf.display.startswith(d) for d in ESCAPE_DIRS)
    names = set(sf.unordered_names)
    sibling = ctx.sibling(sf)
    if sibling is not None:
        names |= sibling.unordered_names

    def in_scope(offset):
        if always:
            return True
        fn = sf.enclosing_function(offset)
        return fn is not None and ESCAPE_FN_RE.match(fn)

    def emit(offset, target):
        line = sf.line_of(offset)
        fn = sf.enclosing_function(offset) or "?"
        yield Finding(
            sf.display, line, "unordered-iteration-escape",
            f"iteration over unordered container '{target}' in "
            f"escape path '{fn}' leaks hash order into serialized "
            f"output; route through util::sortedView() or justify "
            f"with a suppression")

    # range-for loops
    for m in RANGE_FOR_RE.finditer(sf.code):
        depth, k = 1, m.end()
        while k < len(sf.code) and depth > 0:
            if sf.code[k] == "(":
                depth += 1
            elif sf.code[k] == ")":
                depth -= 1
            k += 1
        head = sf.code[m.end():k - 1]
        if ":" not in head:
            continue
        # range expression = text after the *top-level* colon
        # (skip :: qualifiers)
        expr = None
        d = 0
        for i2, ch in enumerate(head):
            if ch in "(<[":
                d += 1
            elif ch in ")>]":
                d -= 1
            elif ch == ":" and d == 0:
                if i2 + 1 < len(head) and head[i2 + 1] == ":":
                    continue
                if i2 > 0 and head[i2 - 1] == ":":
                    continue
                expr = head[i2 + 1:]
                break
        if expr is None:
            continue
        if "sortedView" in expr:
            continue
        target = _last_ident(expr)
        if target in names and in_scope(m.start()):
            yield from emit(m.start(), target)

    # iterator loops: X.begin() on an unordered name
    for m in BEGIN_CALL_RE.finditer(sf.code):
        target = _last_ident(m.group(1))
        if target in names and in_scope(m.start()):
            yield from emit(m.start(), target)


# -- 2. nondeterminism-source -----------------------------------------

RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w:])(?:rand|srand|rand_r|drand48)\s*\("),
     "libc randomness; seed util/rng.hh from sweep::stableSeed instead"),
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device is ambient entropy; use util/rng.hh"),
    (re.compile(r"\b(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?)\b"),
     "std <random> engine; use util/rng.hh (splitmix64/xoshiro)"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> include; all randomness flows through util/rng.hh"),
]

CLOCK_PATTERNS = [
    (re.compile(r"(?<![\w:.])(?:time|clock|gettimeofday|clock_gettime)"
                r"\s*\("),
     "host clock read; simulated time is cycle counts"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock"
                r"|high_resolution_clock)\s*::\s*now\b"),
     "host clock read; simulated time is cycle counts"),
]

PTRKEY_RE = re.compile(r"\bstd\s*::\s*(map|set)\s*<([^;{}]*?)>")
THISKEY_RE = re.compile(
    r"reinterpret_cast\s*<[^>]*uintptr[^>]*>\s*\(\s*this\s*\)|"
    r"\(\s*(?:std\s*::\s*)?uintptr_t\s*\)\s*this\b")


def _first_template_arg(args):
    depth = 0
    for i, ch in enumerate(args):
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        elif ch == "," and depth == 0:
            return args[:i]
    return args


@check("nondeterminism-source")
def check_nondeterminism(sf, ctx):
    in_src, in_bench = _in_src(sf), _in_bench(sf)
    if not in_src and not in_bench:
        return

    def scan(patterns, reason_prefix=""):
        for pat, why in patterns:
            for m in pat.finditer(sf.code):
                yield Finding(sf.display, sf.line_of(m.start()),
                              "nondeterminism-source",
                              reason_prefix + why)

    # Ambient randomness is banned in src/ AND bench/ (results go in
    # reports); host clocks only in src/ (bench harness wall-timing is
    # legitimate and never feeds figure data).
    yield from scan(RANDOM_PATTERNS)
    if in_src:
        yield from scan(CLOCK_PATTERNS)

    if in_src:
        for m in PTRKEY_RE.finditer(sf.code):
            key = _first_template_arg(m.group(2)).strip()
            if key.endswith("*"):
                yield Finding(
                    sf.display, sf.line_of(m.start()),
                    "nondeterminism-source",
                    f"std::{m.group(1)} keyed by pointer '{key}': "
                    f"ASLR makes pointer order differ run to run")
        for m in THISKEY_RE.finditer(sf.code):
            yield Finding(
                sf.display, sf.line_of(m.start()),
                "nondeterminism-source",
                "this-pointer converted to an integer; pointer values "
                "are not stable across runs")


# -- 3. raw-sync ------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable"
    r"|condition_variable_any|thread|jthread)\b")


@check("raw-sync")
def check_raw_sync(sf, ctx):
    if not _in_src(sf):
        return
    if sf.display in RAW_SYNC_ALLOWED:
        return
    for m in RAW_SYNC_RE.finditer(sf.code):
        yield Finding(
            sf.display, sf.line_of(m.start()), "raw-sync",
            f"raw std::{m.group(1)} outside util/sync.hh; use the "
            f"annotated morc::sync wrappers so -Wthread-safety can "
            f"see the lock")


# -- 4. snapshot-completeness -----------------------------------------

CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_][A-Za-z0-9_]*)"
                      r"(?:\s+final)?\s*(?::[^{;]*)?\{")

MEMBER_SKIP_START = {
    "using", "typedef", "friend", "static", "constexpr", "enum",
    "class", "struct", "union", "template", "public", "private",
    "protected", "operator", "return",
}


def _class_bodies(sf):
    """(name, body_start, body_end) for classes/structs with bodies."""
    out = []
    for m in CLASS_RE.finditer(sf.code):
        start = m.end() - 1  # at '{'
        depth, k = 1, start + 1
        while k < len(sf.code) and depth > 0:
            if sf.code[k] == "{":
                depth += 1
            elif sf.code[k] == "}":
                depth -= 1
            k += 1
        if depth == 0:
            out.append((m.group(2), start + 1, k - 1, m.start()))
    return out


def _member_decls(sf, body_start, body_end):
    """(name, line) of non-static data members declared at class
    depth, recovered statement-by-statement."""
    code = sf.code
    members = []
    depth = 0
    stmt_start = body_start
    k = body_start
    while k < body_end:
        ch = code[k]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                stmt_start = k + 1
        elif ch == ";" and depth == 0:
            stmt = code[stmt_start:k]
            members.extend(_parse_member(sf, stmt, stmt_start))
            stmt_start = k + 1
        k += 1
    return members


BITFIELD_RE = re.compile(r":\s*\d+\s*$")


def _parse_member(sf, stmt, stmt_offset):
    s = stmt.strip()
    if not s:
        return []
    first = IDENT_RE.match(s)
    if not first or first.group(0) in MEMBER_SKIP_START:
        # access specifiers arrive glued to the next statement
        # ("public:\n  void f()"), so drop leading specifier labels
        # and retry once.
        s2 = re.sub(r"^\s*(public|private|protected)\s*:", "", s).strip()
        if s2 == s or not s2:
            return []
        s = s2
        first = IDENT_RE.match(s)
        if not first or first.group(0) in MEMBER_SKIP_START:
            return []
    if any(tok in s.split() for tok in ("static", "constexpr", "friend",
                                        "using", "typedef")):
        return []
    s = BITFIELD_RE.sub("", s)
    # Chop a default initializer: `= init` or `{init}` at top level.
    depth = 0
    for i, ch in enumerate(s):
        if ch in "<([{":
            if ch == "{" and depth == 0:
                s = s[:i]
                break
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            s = s[:i]
            break
    s = s.strip()
    if not s or s.endswith((")", ">", "&", "*", ":")):
        return []  # function decl / junk
    # Array suffix: name[3]
    s = re.sub(r"\[[^\]]*\]\s*$", "", s).strip()
    ids = IDENT_RE.findall(s)
    if len(ids) < 2:
        return []  # a lone identifier is not `type name`
    name = ids[-1]
    if name in CXX_KEYWORDS:
        return []
    # Reject function declarations: declarator directly followed by (
    m = re.search(r"\b" + re.escape(name) + r"\s*\(", stmt)
    if m:
        return []
    line = sf.line_of(stmt_offset) + stmt[:stmt.find(name)].count("\n")
    return [(name, line)]


def _method_bodies(sf, sibling, cls, body_start, body_end, wanted):
    """Concatenated bodies of `wanted` methods of class `cls`, found
    inline in the class body or out-of-line as Cls::name in this file
    or its sibling."""
    found = []
    text = ""
    # inline definitions inside the class body
    for name, fstart, fend in sf.functions:
        if name in wanted and body_start <= fstart < body_end:
            text += sf.code[fstart:fend]
            found.append(name)
    # out-of-line: Cls::name (...) { ... }
    for other in (sf, sibling):
        if other is None:
            continue
        for m in re.finditer(
                r"\b" + re.escape(cls) + r"\s*::\s*(\w+)\s*\(",
                other.code):
            name = m.group(1)
            if name not in wanted:
                continue
            for fname, fstart, fend in other.functions:
                if fname == name and fstart >= m.start() and \
                        fstart < m.end() + 4000:
                    # the span matched from the same definition header
                    text += other.code[fstart:fend]
                    found.append(name)
                    break
    return text, found


@check("snapshot-completeness")
def check_snapshot_completeness(sf, ctx):
    if not _in_src(sf):
        return
    sibling = ctx.sibling(sf)
    for cls, bstart, bend, decl_off in _class_bodies(sf):
        decl_line = sf.line_of(decl_off)
        if sf.allowed(decl_line, "snapshot-completeness"):
            continue
        save_body, saves = _method_bodies(
            sf, sibling, cls, bstart, bend, SAVE_METHODS)
        restore_body, restores = _method_bodies(
            sf, sibling, cls, bstart, bend, RESTORE_METHODS)
        walk_body, walks = _method_bodies(
            sf, sibling, cls, bstart, bend, WALK_METHODS)
        if not walks and not (saves and restores):
            continue
        corpus = save_body + restore_body + walk_body
        methods = "/".join(sorted(set(saves + restores + walks)))
        for name, line in _member_decls(sf, bstart, bend):
            if re.search(r"\b" + re.escape(name) + r"\b", corpus):
                continue
            yield Finding(
                sf.display, line, "snapshot-completeness",
                f"member '{cls}::{name}' appears in none of {methods}; "
                f"snapshot it, or suppress with a reason if it is "
                f"derived state")


# -- 5. bare-assert ---------------------------------------------------

ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")


@check("bare-assert")
def check_bare_assert(sf, ctx):
    if not _in_src(sf):
        return
    for m in ASSERT_RE.finditer(sf.code):
        before = sf.code[max(0, m.start() - 7):m.start()]
        if before.endswith("static_"):
            continue
        yield Finding(
            sf.display, sf.line_of(m.start()), "bare-assert",
            "assert() vanishes under NDEBUG (the default build); use "
            "MORC_CHECK / MORC_DCHECK from check/check.hh")


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

class Context:
    """Cross-file lookups: sibling header/source pairing."""

    def __init__(self, files_by_display):
        self.files = files_by_display

    def sibling(self, sf):
        stem, ext = os.path.splitext(sf.display)
        other = stem + (".cc" if ext == ".hh" else ".hh")
        return self.files.get(other)


def discover_files(root, build_dir):
    """Analyzed file set as display (root-relative) paths."""
    paths = set()
    cc_json = os.path.join(root, build_dir, "compile_commands.json")
    if os.path.isfile(cc_json):
        try:
            for entry in json.load(open(cc_json)):
                f = entry.get("file", "")
                rel = os.path.relpath(
                    os.path.join(entry.get("directory", root), f)
                    if not os.path.isabs(f) else f, root)
                if rel.startswith(("src/", "bench/")):
                    paths.add(rel)
        except (json.JSONDecodeError, OSError):
            pass
    for pattern in ("src/**/*.cc", "src/**/*.hh",
                    "bench/**/*.cc", "bench/**/*.hh"):
        for f in glob.glob(os.path.join(root, pattern), recursive=True):
            paths.add(os.path.relpath(f, root))
    return sorted(paths)


def analyze_files(root, rel_paths):
    files = {}
    for rel in rel_paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            files[rel] = SourceFile(full, rel)
    ctx = Context(files)
    findings = []
    for rel in sorted(files):
        sf = files[rel]
        for name, fn in CHECKS.items():
            for f in fn(sf, ctx) or ():
                if not sf.allowed(f.line, f.check):
                    findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


# ---------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------

def run_self_test(fixture_dir):
    """For every registered check: fire.cc must produce exactly the
    findings in fire.expected (line + check), clean.cc must produce
    none. The registry itself is diffed against checks.txt."""
    failures = []

    checks_txt = os.path.join(fixture_dir, "checks.txt")
    try:
        expected_registry = sorted(
            line.strip() for line in open(checks_txt)
            if line.strip() and not line.startswith("#"))
    except OSError:
        print(f"self-test: cannot read {checks_txt}", file=sys.stderr)
        return 2
    actual_registry = sorted(CHECKS)
    if expected_registry != actual_registry:
        failures.append(
            "check registry drifted:\n"
            f"  expected: {expected_registry}\n"
            f"  actual:   {actual_registry}\n"
            "  (update tests/analyze/fixtures/checks.txt in the same "
            "PR that adds/removes a check)")

    for name in actual_registry:
        cdir = os.path.join(fixture_dir, name)
        for role in ("fire", "clean"):
            src = os.path.join(cdir, f"{role}.cc")
            if not os.path.isfile(src):
                failures.append(f"{name}: missing fixture {src}")
                continue
            # Present the fixture as a src/ file so path-scoped checks
            # apply, and pair fire.cc/clean.cc as their own TU.
            text = open(src, encoding="utf-8").read()
            sf = SourceFile(src, f"src/fixtures/{name}/{role}.cc",
                            text=text)
            ctx = Context({sf.display: sf})
            got = sorted(
                (f.line, f.check)
                for f in (CHECKS[name](sf, ctx) or ())
                if not sf.allowed(f.line, f.check))
            if role == "clean":
                if got:
                    failures.append(
                        f"{name}/clean.cc: expected no findings, got "
                        + ", ".join(f"line {l}" for l, _ in got))
                continue
            exp_file = os.path.join(cdir, "fire.expected")
            try:
                expected = sorted(
                    (int(line.split()[0]), line.split()[1])
                    for line in open(exp_file)
                    if line.strip() and not line.startswith("#"))
            except (OSError, IndexError, ValueError):
                failures.append(f"{name}: bad or missing {exp_file}")
                continue
            if got != expected:
                failures.append(
                    f"{name}/fire.cc: findings drifted\n"
                    f"  expected: {expected}\n"
                    f"  got:      {got}")

    if failures:
        print("morc_analyze self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  - " + f.replace("\n", "\n    "), file=sys.stderr)
        return 1
    print(f"morc_analyze self-test: {len(actual_registry)} checks, "
          f"all fixtures behave")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="MORC concurrency & determinism static analysis")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir holding compile_commands.json")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--self-test", metavar="FIXTURE_DIR",
                    help="run the fixture suite and registry diff")
    ap.add_argument("files", nargs="*",
                    help="restrict analysis to these root-relative "
                         "files")
    args = ap.parse_args()

    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0
    if args.self_test:
        return run_self_test(args.self_test)

    root = os.path.abspath(args.root)
    rel_paths = args.files or discover_files(root, args.build_dir)
    findings = analyze_files(root, rel_paths)
    for f in findings:
        print(f.render())
    if findings:
        print(f"morc_analyze: {len(findings)} finding(s) in "
              f"{len(rel_paths)} files", file=sys.stderr)
        return 1
    print(f"morc_analyze: clean ({len(rel_paths)} files, "
          f"{len(CHECKS)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
