#!/usr/bin/env python3
"""Build and run the SODA simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rpc_inet_1024 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

The first call configures and builds perfbench/ (the simulator libraries
from src/ plus the soda_perf program) into .bench_build/ at the checkout
root; later calls only re-check the build. Each workload runs in its own
soda_perf process, so the peak RSS it reports belongs to that workload.
The last line of standard output is soda_perf's JSON result; traced runs
also write their spans under .bench_build/traces/. Build output goes to
standard error. The exit code is nonzero, with no result printed, when the
build or a correctness gate fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["rpc_inet_1024", "pool_open_128", "directory_64", "chaos_sweep",
             "par_inet_1024x4"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kw):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(root):
    src = root / "perfbench"
    out = root / ".bench_build" / "perfbench"
    if not (root / "src" / "sim" / "simulator.h").is_file():
        fail(f"simulator sources not found under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(src), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "soda_perf",
                  "-j", jobs])
    for cmd in steps:
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "soda_perf"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    traces = root / ".bench_build" / "traces"
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", str(traces)]
        sys.stdout.flush()
        code = run_checked(cmd, RUN_TIMEOUT_S, cwd=root)
        if code != 0:
            print(f"perfbench: {name} failed (exit {code})", file=sys.stderr)
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
