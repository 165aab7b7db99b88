#!/usr/bin/env python3
"""Builds the MQA benchmark from source and runs one workload.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 16 --trace 0

`--workload all` runs chat, disk_chat and live_catalog one after another
and exits non-zero when any of them does. Run from the root of a checkout.
The binary is built with CMake into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr.
Run artifacts (span JSON, result JSON, the durable catalogue directory)
go under `.bench_out/`. The last line of stdout is the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is the binary's: 0 only when every correctness gate held.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["chat", "disk_chat", "live_catalog"]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args[:-1]:
        at = args.index("--workload") + 1
        if args[at] == "all":
            runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    rc = 0
    for run_args in runs:
        cmd = [exe, "--out-dir", out_dir] + run_args
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc

if __name__ == "__main__":
    sys.exit(main())
