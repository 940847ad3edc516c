#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator and the benchmark
binary from source into .bench_build/perfbench (CMake, Release), runs one
workload in a fresh process, and prints the binary's report. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result line, when the build
or the run fails; exits 1 with "correct": false when an output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
BINARY = BUILD_DIR / "neat_perfbench"

# A measured run must end within the benchmark's 180 s budget; the first
# run in a checkout also builds, which gets its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (compilers under cmake included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configure (first time) and build the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "neat_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        try:
            code, _ = run_child(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out")
            return False
        if code != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The binary validates the workload name (exit 2 when unknown).
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(TRACE_DIR)]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        # No result line: show what the binary said, on stderr.
        log(out)
        log(f"perfbench: no result line (exit {code})")
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
