#!/usr/bin/env python3
"""End-to-end training benchmark: build from source, then run one workload.

Usage (from the repository root):

  python3 e2ebench/run.py --workload lenet_fda --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --self-test

The first call configures and builds e2ebench/ (a standalone CMake package
that compiles the library from src/) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when the variable is unset. Build output goes to
stderr; the last stdout line is the benchmark's JSON result. --self-test
builds everything and runs the benchmark's own tests (ctest).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = REPO_ROOT / path
    return path / "e2ebench"


def run_build_step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode or 1)


def build(targets):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    for target in targets:
        run_build_step(["cmake", "--build", str(out), "-j", jobs,
                   "--target", target])
    return out


def source_rev():
    """The git commit when run from a clone, else a digest of src/."""
    if (REPO_ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 check=True).stdout.strip()
            return "git:" + rev
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(REPO_ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["e2e_bench", "e2e_wrapper_test"])
        return subprocess.run(["ctest", "--test-dir", str(out),
                               "--output-on-failure"]).returncode
    if not args.workload:
        parser.error("--workload is required")

    out = build(["e2e_bench"])
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(out / "e2e_bench"), "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(traces)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, E2E_SOURCE_REV=source_rev())
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
