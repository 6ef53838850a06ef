#!/usr/bin/env python3
"""Determinism lint: static checks for fedra's bit-reproducibility contract.

FDA histories are specified to be bit-identical across FEDRA_NUM_THREADS
settings and fault schedules (see docs/determinism.md). That only holds
while every stochastic or order-sensitive construct goes through the
blessed mechanisms: seeded util/rng streams, the fixed-chunk reduction
helpers, and the ThreadPool. This lint walks C++ sources and fails on the
constructs that historically smuggle nondeterminism into FL codebases:

  std-rand            C PRNG (rand/srand/std::rand): global hidden state,
                      not forkable per worker, often time-seeded.
  random-device       std::random_device outside util/rng: fresh entropy
                      per run, irreproducible by construction.
  wall-clock-seed     time(...)/clock()/gettimeofday/system_clock: wall
                      clocks as entropy or control flow. steady_clock is
                      fine — it measures, it never seeds.
  unordered-iteration std::unordered_{map,set}: hash-order iteration is
                      libc++/libstdc++/ASLR dependent; feeding it into
                      float accumulation reorders the sum. Use std::map /
                      sorted vectors, or waive with a proof that iteration
                      order never reaches arithmetic.
  raw-thread          std::thread/std::async/std::jthread outside
                      util/thread_pool: ad-hoc threads bypass the pool's
                      deterministic fixed-chunk handout and its TSan-vetted
                      sleep/wake protocol.
  variable-chunk      ParallelFor/ParallelForRange whose grain is derived
                      from the thread count (num_threads()/
                      hardware_concurrency): chunk boundaries — and float
                      combine order — then depend on the machine. Use the
                      fixed 32768-element helpers (sim/collectives.cc
                      kReduceChunk) or another thread-count-independent
                      constant.
  raw-cpu-dispatch    __builtin_cpu_supports/cpuid probes or ISA-macro
                      #ifdefs (__AVX2__/__AVX512F__/__ARM_NEON/...) outside
                      src/tensor/simd_dispatch.*: scattered ISA branches
                      make which accumulation pattern ran depend on the
                      build flags and host CPU of each call site, which no
                      parity suite covers. All ISA selection goes through
                      the dispatch table (simd::Kernels()), where every
                      compiled-in level is parity-tested and the active
                      level is observable and pinnable (FEDRA_SIMD).

Waiver syntax — same line or the line directly above, reason mandatory:

    std::unordered_map<int, Entry> index_;  // fedra-nondeterminism-ok: keys
        // are only probed, never iterated; no accumulation sees hash order

A waiver without a reason is itself an error (empty-waiver): every escape
hatch must say why it is safe so reviewers can audit the claim.

Usage:
    lint_determinism.py [--self-test] [path ...]

Paths may be files or directories (searched recursively for .h/.cc/.cpp).
Exit 0 when clean, 1 on findings, 2 on usage errors. --self-test runs the
fixture files under tests/lint/ and verifies the expected findings fire.
"""

import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
WAIVER_MARKER = "fedra-nondeterminism-ok"
WAIVER_RE = re.compile(r"fedra-nondeterminism-ok\s*:?\s*(?P<reason>.*)")

# Files exempt from specific rules: the blessed implementations themselves.
RULE_ALLOWED_FILES = {
    "random-device": ("util/rng.h", "util/rng.cc"),
    "raw-thread": ("util/thread_pool.h", "util/thread_pool.cc"),
    "raw-cpu-dispatch": (
        "tensor/simd_dispatch.h",
        "tensor/simd_dispatch.cc",
    ),
}

RULES = [
    (
        "std-rand",
        re.compile(r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:.])rand\s*\("),
        "C PRNG (rand/srand): hidden global state; use a seeded util/rng "
        "Rng (Fork(k) per worker) instead",
    ),
    (
        "random-device",
        re.compile(r"\brandom_device\b"),
        "std::random_device outside util/rng: fresh entropy makes runs "
        "irreproducible; derive streams from the run seed via Rng::Fork",
    ),
    (
        "wall-clock-seed",
        re.compile(
            r"\bsystem_clock\b|\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
            r"|(?<![\w:.])clock\s*\(\s*\)"
        ),
        "wall-clock entropy (time()/clock()/system_clock): seeds or control "
        "flow from the clock differ per run; steady_clock measurement of "
        "elapsed time is fine, clock-derived values feeding logic are not",
    ),
    (
        "unordered-iteration",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        "hash-ordered container: iteration order is implementation- and "
        "ASLR-dependent and must never feed float accumulation; use an "
        "ordered container or waive with proof the order never escapes",
    ),
    (
        "raw-thread",
        re.compile(r"\bstd::(?:thread|jthread|async)\b"),
        "raw thread outside util/thread_pool: bypasses the pool's "
        "deterministic fixed-chunk scheduling; use "
        "GlobalThreadPool().ParallelFor*/Schedule",
    ),
    (
        "raw-cpu-dispatch",
        re.compile(
            r"\b__builtin_cpu_(?:supports|init)\b|\b__get_cpuid\w*\b"
            r"|\b_xgetbv\b"
            r"|^\s*#\s*(?:el)?if(?:n?def)?\b.*\b__"
            r"(?:AVX|SSE|FMA|ARM_NEON|ARM_FEATURE)\w*\b"
        ),
        "raw CPU dispatch outside src/tensor/simd_dispatch.*: cpuid probes "
        "and ISA-macro #ifdefs pick an accumulation pattern per call site, "
        "untestable by the dispatch parity suite; route the kernel through "
        "simd::Kernels() instead",
    ),
]

# variable-chunk needs the call statement, matched separately over a window.
# Member access (pool.ParallelFor / GlobalThreadPool().ParallelForRange) is
# required so declarations and the pool's own implementation don't match.
PARALLEL_CALL_RE = re.compile(r"(?:\.|->)\s*ParallelFor(?:Range|2d)?\s*\(")
THREAD_COUNT_RE = re.compile(r"\bnum_threads\s*\(|\bhardware_concurrency\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Returns lines with comments and string/char literals blanked out.

    Line count and column positions of surviving code are preserved so
    findings point at real locations. Waivers are extracted from the raw
    lines separately, before this pass.
    """
    out = []
    in_block_comment = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        in_string = None  # the quote char when inside a literal
        while i < n:
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block_comment:
                if ch == "*" and nxt == "/":
                    in_block_comment = False
                    result.append("  ")
                    i += 2
                    continue
                result.append(" ")
                i += 1
                continue
            if in_string:
                if ch == "\\":
                    result.append("  ")
                    i += 2
                    continue
                if ch == in_string:
                    in_string = None
                result.append(" ")
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break  # rest of line is a comment
            if ch == "/" and nxt == "*":
                in_block_comment = True
                result.append("  ")
                i += 2
                continue
            if ch in "\"'":
                in_string = ch
                result.append(" ")
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def collect_waivers(lines, path, findings):
    """Maps 1-based line numbers -> waiver reason; flags empty reasons.

    A waiver covers its own line and, when it is the only content of the
    line (a standalone comment), the following line.
    """
    waivers = {}
    for idx, raw in enumerate(lines, start=1):
        if WAIVER_MARKER not in raw:
            continue
        match = WAIVER_RE.search(raw)
        reason = match.group("reason").strip() if match else ""
        if not reason:
            findings.append(
                Finding(
                    path,
                    idx,
                    "empty-waiver",
                    "fedra-nondeterminism-ok waiver without a reason: state "
                    "why the flagged construct cannot break determinism",
                )
            )
            continue
        waivers[idx] = reason
        stripped = raw.strip()
        if stripped.startswith("//") or stripped.startswith("/*"):
            # Standalone waiver comment: applies to the next line.
            waivers[idx + 1] = reason
    return waivers


def relpath_matches(path, suffixes):
    normalized = path.replace(os.sep, "/")
    return any(normalized.endswith(suffix) for suffix in suffixes)


def lint_file(path):
    findings = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as err:
        findings.append(Finding(path, 0, "io-error", str(err)))
        return findings

    waivers = collect_waivers(raw_lines, path, findings)
    code_lines = strip_comments_and_strings(raw_lines)

    def report(line_number, rule, message):
        if line_number in waivers:
            return
        findings.append(Finding(path, line_number, rule, message))

    for rule, pattern, message in RULES:
        allowed = RULE_ALLOWED_FILES.get(rule)
        if allowed and relpath_matches(path, allowed):
            continue
        for idx, line in enumerate(code_lines, start=1):
            if pattern.search(line):
                report(idx, rule, message)

    # variable-chunk: inspect a few lines of each ParallelFor* call for
    # thread-count-derived arguments (grain expressions split across lines).
    for idx, line in enumerate(code_lines, start=1):
        if not PARALLEL_CALL_RE.search(line):
            continue
        window = " ".join(code_lines[idx - 1 : idx + 3])
        if THREAD_COUNT_RE.search(window):
            report(
                idx,
                "variable-chunk",
                "parallel loop sized from the thread count: chunk "
                "boundaries (and float combine order) become "
                "machine-dependent; use a fixed-size grain like the 32768-"
                "element reduction helpers",
            )
    return findings


def iter_source_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            print(f"error: no such file or directory: {path}", file=sys.stderr)
            sys.exit(2)
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(root, name)


def run_lint(paths):
    findings = []
    for path in iter_source_files(paths):
        findings.extend(lint_file(path))
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\n{len(findings)} determinism finding(s). Fix, or waive a "
            f"provably-safe use with '// {WAIVER_MARKER}: <reason>' on or "
            "directly above the line.",
            file=sys.stderr,
        )
        return 1
    return 0


def self_test():
    """Fixture check: the clean file passes, the dirty file fires exactly
    the expected rules, and an unreasoned waiver is rejected."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, os.pardir, "tests", "lint")
    clean = os.path.join(fixtures, "fixture_clean.cc")
    dirty = os.path.join(fixtures, "fixture_violations.cc")
    for fixture in (clean, dirty):
        if not os.path.isfile(fixture):
            print(f"self-test: missing fixture {fixture}", file=sys.stderr)
            return 2

    failures = []
    clean_findings = lint_file(clean)
    if clean_findings:
        failures.append(
            "clean fixture should lint clean, got:\n  "
            + "\n  ".join(str(f) for f in clean_findings)
        )

    dirty_findings = lint_file(dirty)
    fired = {}
    for finding in dirty_findings:
        fired[finding.rule] = fired.get(finding.rule, 0) + 1
    expected = {
        "std-rand": 3,  # std::rand(), srand(), and the rand() cohort pick
        "random-device": 1,
        "wall-clock-seed": 3,  # time(nullptr), system_clock, round-rng time()
        "unordered-iteration": 1,
        "raw-thread": 2,  # std::thread and std::async
        "variable-chunk": 1,
        "raw-cpu-dispatch": 2,  # __builtin_cpu_supports and #ifdef __AVX2__
        "empty-waiver": 1,
    }
    if fired != expected:
        failures.append(
            f"violations fixture: expected rule counts {expected}, "
            f"got {fired}:\n  " + "\n  ".join(str(f) for f in dirty_findings)
        )

    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"self-test OK: clean fixture passes, violations fixture fires "
        f"{sum(expected.values())} findings across {len(expected)} rules"
    )
    return 0


def main(argv):
    args = argv[1:]
    if "--self-test" in args:
        args.remove("--self-test")
        if args:
            print("--self-test takes no paths", file=sys.stderr)
            return 2
        return self_test()
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
