#!/usr/bin/env python3
"""essat-tidy: project-specific determinism & hot-path lint checks.

The essat-tidy check suite, implemented on a tokenized line stream so the
lint gate runs on any machine with a Python interpreter and nothing else.

Checks
------
  essat-no-wallclock
      Bans wall-clock and ambient-randomness APIs (std::chrono clocks,
      time(), gettimeofday, clock(), rand()/srand(), std::random_device)
      in src/. Simulation code must use Simulator::now() for time and
      forked util::Rng streams for randomness — a single wall-clock read
      makes a run irreproducible. Allowlisted: util/rng.* (owns the RNG),
      exp/ progress reporting, obs/ export timestamps.

  essat-deterministic-iteration
      Flags range-for / iterator loops over std::unordered_map /
      std::unordered_set: iteration order is unspecified, so any side
      effect in the body (metrics accumulation, "first match wins", output
      ordering) leaks hash-table layout into results. Use util::FlatMap
      with a sorted drain, or collect keys and sort them first — the
      key-collection idiom `for (... : m) keys.push_back(kv.first);`
      immediately followed by a sort is recognized and allowed.

  essat-hot-path-alloc
      For files on the hot-path list (sim/, net/channel.*, mac/csma.*):
      flags operator new, make_shared/make_unique/allocate_shared,
      std::function, and node-based containers (std::map, std::list,
      std::deque, unordered_*). The event core is steady-state
      allocation-free (see BENCH_*.json allocs/event) and every flagged
      construct either allocates or can allocate behind your back.
      Placement new (`new (buf) T`, used by sim::InlineCallback) does not
      allocate and is not flagged.

  essat-rng-by-ref
      Flags util::Rng function parameters taken by value. Rng is move-only
      precisely so a stream cannot be silently duplicated; sinks take
      `util::Rng&&` and move into a member, borrowers take `util::Rng&`.

Suppressions
------------
A finding on a line carrying (or immediately preceded by a line carrying)

    // essat-lint: allow(<check-name>)

is suppressed but counted. The total number of suppression comments in the
scanned tree is capped (--max-suppressions, CI passes 6): suppressions
are pressure-relief for deliberate API choices, not a bypass.

Exit status: 0 clean; 1 unsuppressed findings or suppression cap exceeded;
2 usage error.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

CHECKS = (
    "no-wallclock",
    "deterministic-iteration",
    "hot-path-alloc",
    "rng-by-ref",
)

# Paths (relative to --root, '/'-separated prefixes) exempt from
# essat-no-wallclock: the RNG implementation itself, sweep-engine progress
# reporting, trace-export timestamps, and the snapshot file-I/O TU — the
# ONLY snap translation unit allowed to touch the host environment; the
# rest of src/snap runs inside trials and stays banned (pinned by the
# wallclock-allowlist fixture).
WALLCLOCK_ALLOWLIST = (
    "src/util/rng.",
    "src/exp/",
    "src/obs/trace_export.",
    "src/snap/snapshot_io.",
)

# Hot-path surface: the event core, the channel, and the MAC. Everything
# here runs per event or per frame in steady state.
HOT_PATH_PREFIXES = (
    "src/sim/",
    "src/net/channel.",
    "src/net/topology.",
    "src/mac/csma.",
)

SUPPRESS_RE = re.compile(r"//\s*essat-lint:\s*allow\(([a-z-]+)\)")


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    col: int  # 1-based
    check: str
    message: str


class FileText(NamedTuple):
    path: str  # path as reported (relative to root when possible)
    raw: List[str]  # original lines
    code: List[str]  # lines with comments and string/char literals blanked


def strip_comments_and_strings(lines: List[str]) -> List[str]:
    """Blanks comments and string/char literals, preserving line lengths so
    columns in findings still point into the original text."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        in_str: Optional[str] = None
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif in_str:
                if c == "\\" and i + 1 < n:
                    buf.append("  ")
                    i += 2
                elif c == in_str:
                    in_str = None
                    buf.append(c)
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
            elif line.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                in_str = c
                buf.append(c)
                i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


# --------------------------------------------------------------------------
# essat-no-wallclock

WALLCLOCK_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"std\s*::\s*chrono"), "std::chrono"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w.>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w.>])s?rand\s*\(\s*"), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
)


def check_no_wallclock(ft: FileText, allowlist_on: bool) -> List[Finding]:
    if allowlist_on:
        norm = ft.path.replace(os.sep, "/")
        if any(norm.startswith(p) or ("/" + p) in norm
               for p in WALLCLOCK_ALLOWLIST):
            return []
    findings = []
    for ln, code in enumerate(ft.code, 1):
        for pat, what in WALLCLOCK_PATTERNS:
            m = pat.search(code)
            if m:
                findings.append(Finding(
                    ft.path, ln, m.start() + 1, "no-wallclock",
                    f"{what} breaks run reproducibility; use Simulator::now() "
                    f"for time and a forked util::Rng stream for randomness"))
    return findings


# --------------------------------------------------------------------------
# essat-deterministic-iteration

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{]*>\s+(\w+)\s*[;={]")
# The sequence expression may be qualified (`s.per_link`, `this->links_`);
# the declared container name is its last component.
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;)]*:\s*(?:\w+\s*(?:\.|->)\s*)*(\w+)\s*\)")
ITER_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:auto|[\w:<>]+)\s+\w+\s*=\s*"
    r"(?:\w+\s*(?:\.|->)\s*)*(\w+)\s*\.\s*(?:c?begin)\s*\(")
KEY_COLLECT_RE = re.compile(r"\.push_back\(\s*\w+\.first\s*\)")


def check_deterministic_iteration(ft: FileText) -> List[Finding]:
    unordered_names = set()
    for code in ft.code:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return []
    findings = []
    for ln, code in enumerate(ft.code, 1):
        for pat in (RANGE_FOR_RE, ITER_FOR_RE):
            m = pat.search(code)
            if not m or m.group(1) not in unordered_names:
                continue
            # Blessed idiom: collecting keys for a sorted drain. The
            # collection body must be on the same line (the codebase style
            # for these one-liners) so the allowance can't hide real work.
            tail = code[m.end():]
            if KEY_COLLECT_RE.search(tail):
                continue
            findings.append(Finding(
                ft.path, ln, m.start() + 1, "deterministic-iteration",
                f"iteration over unordered container '{m.group(1)}' leaks "
                f"hash-table layout into side effects; drain sorted keys or "
                f"use util::FlatMap with a sorted drain"))
    return findings


# --------------------------------------------------------------------------
# essat-hot-path-alloc

HOT_PATH_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    # `new T`, `new foo::T`, `new T[...]` — but not placement `new (buf) T`
    # and not `::new (buf) T` (sim::InlineCallback's non-allocating form).
    (re.compile(r"(?<!:)\bnew\s+(?!\()[A-Za-z_:]"), "operator new"),
    (re.compile(r"\bmake_shared\s*<"), "make_shared"),
    (re.compile(r"\bmake_unique\s*<"), "make_unique"),
    (re.compile(r"\ballocate_shared\s*<"), "allocate_shared"),
    (re.compile(r"std\s*::\s*function\s*<"), "std::function"),
    (re.compile(r"std\s*::\s*map\s*<"), "std::map"),
    (re.compile(r"std\s*::\s*multimap\s*<"), "std::multimap"),
    (re.compile(r"std\s*::\s*list\s*<"), "std::list"),
    (re.compile(r"std\s*::\s*deque\s*<"), "std::deque"),
    (re.compile(r"\bunordered_(?:map|set)\s*<"), "unordered container"),
)


def is_hot_path(path: str) -> bool:
    norm = path.replace(os.sep, "/")
    return any(norm.startswith(p) or ("/" + p) in norm
               for p in HOT_PATH_PREFIXES)


def check_hot_path_alloc(ft: FileText, assume_hot: bool) -> List[Finding]:
    if not assume_hot and not is_hot_path(ft.path):
        return []
    findings = []
    for ln, code in enumerate(ft.code, 1):
        for pat, what in HOT_PATH_PATTERNS:
            m = pat.search(code)
            if m:
                findings.append(Finding(
                    ft.path, ln, m.start() + 1, "hot-path-alloc",
                    f"{what} on the hot path (steady state must be "
                    f"allocation-free; use sim::InlineCallback, "
                    f"util::FlatMap, util::RingQueue, or pre-sized flat "
                    f"storage)"))
    return findings


# --------------------------------------------------------------------------
# essat-rng-by-ref

# `Rng name` immediately followed by `,` or `)` — i.e. a by-value function
# parameter. `Rng&&`/`Rng&` don't match (no whitespace after Rng), local
# declarations (`Rng r{..};`, `Rng r = ..;`) and members (`Rng rng_;`)
# aren't followed by `,`/`)`.
RNG_BY_VALUE_RE = re.compile(r"(?<![&\w])Rng\s+\w+\s*[,)]")


def check_rng_by_ref(ft: FileText) -> List[Finding]:
    findings = []
    for ln, code in enumerate(ft.code, 1):
        m = RNG_BY_VALUE_RE.search(code)
        if m:
            findings.append(Finding(
                ft.path, ln, m.start() + 1, "rng-by-ref",
                "util::Rng passed by value would duplicate the random "
                "stream; sinks take util::Rng&& and move, borrowers take "
                "util::Rng&"))
    return findings


# --------------------------------------------------------------------------
# driver

def scan_file(path: str, rel: str, checks: List[str], assume_hot: bool,
              allowlist_on: bool) -> Tuple[List[Finding], List[Finding], int]:
    """Returns (unsuppressed findings, suppressed findings, suppression
    comment count) for one file."""
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    ft = FileText(rel, raw, strip_comments_and_strings(raw))

    findings: List[Finding] = []
    if "no-wallclock" in checks:
        findings += check_no_wallclock(ft, allowlist_on)
    if "deterministic-iteration" in checks:
        findings += check_deterministic_iteration(ft)
    if "hot-path-alloc" in checks:
        findings += check_hot_path_alloc(ft, assume_hot)
    if "rng-by-ref" in checks:
        findings += check_rng_by_ref(ft)

    # Suppression map: line -> set of allowed checks (a comment covers its
    # own line and the line below, so annotations can sit above the code).
    allowed: Dict[int, set] = {}
    n_suppress_comments = 0
    for ln, line in enumerate(raw, 1):
        for m in SUPPRESS_RE.finditer(line):
            n_suppress_comments += 1
            for covered in (ln, ln + 1):
                allowed.setdefault(covered, set()).add(m.group(1))

    active, suppressed = [], []
    for f_ in findings:
        if f_.check in allowed.get(f_.line, set()):
            suppressed.append(f_)
        else:
            active.append(f_)
    return active, suppressed, n_suppress_comments


def collect_files(root: str, paths: List[str]) -> List[Tuple[str, str]]:
    """Yields (absolute path, root-relative path) for every C++ file."""
    exts = (".h", ".hpp", ".cpp", ".cc", ".cxx")
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append((ap, os.path.relpath(ap, root)))
            continue
        for dirpath, _dirnames, filenames in os.walk(ap):
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    full = os.path.join(dirpath, fn)
                    out.append((full, os.path.relpath(full, root)))
    return sorted(out, key=lambda t: t[1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="essat_tidy.py",
        description="essat-tidy determinism & hot-path lint checks")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to scan (default: src)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of checks to run")
    parser.add_argument("--max-suppressions", type=int, default=10,
                        help="fail when more than N essat-lint:allow "
                             "comments exist in the scanned tree (default "
                             "10)")
    parser.add_argument("--assume-hot-path", action="store_true",
                        help="treat every scanned file as hot-path "
                             "(fixture testing)")
    parser.add_argument("--no-allowlist", action="store_true",
                        help="disable the no-wallclock path allowlist "
                             "(fixture testing)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-finding output, print summary "
                             "only")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(f"essat-{c}")
        return 0

    checks = [c.strip().removeprefix("essat-")
              for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        print(f"essat-tidy: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    root = args.root or os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
    paths = args.paths or ["src"]
    files = collect_files(root, paths)
    if not files:
        print(f"essat-tidy: no C++ files under {paths} (root {root})",
              file=sys.stderr)
        return 2

    all_active: List[Finding] = []
    all_suppressed: List[Finding] = []
    n_suppress_comments = 0
    for ap, rel in files:
        active, suppressed, n_comments = scan_file(
            ap, rel, checks, args.assume_hot_path, not args.no_allowlist)
        all_active += active
        all_suppressed += suppressed
        n_suppress_comments += n_comments

    if not args.quiet:
        for f_ in all_active:
            print(f"{f_.path}:{f_.line}:{f_.col}: warning: {f_.message} "
                  f"[essat-{f_.check}]")
        for f_ in all_suppressed:
            print(f"{f_.path}:{f_.line}:{f_.col}: note: suppressed: "
                  f"{f_.message} [essat-{f_.check}]")

    over_cap = n_suppress_comments > args.max_suppressions
    print(f"essat-tidy: {len(all_active)} finding(s), "
          f"{len(all_suppressed)} suppressed "
          f"({n_suppress_comments} suppression comment(s), "
          f"cap {args.max_suppressions}) across {len(files)} file(s)")
    if over_cap:
        print(f"essat-tidy: FAIL — suppression cap exceeded "
              f"({n_suppress_comments} > {args.max_suppressions})")
    return 1 if (all_active or over_cap) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
