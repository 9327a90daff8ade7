#!/usr/bin/env python3
"""Build the gumbo benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload flat-mem --seed 1 --seconds 30 --trace 0

Workloads: flat-mem, nested-durable, service-open (see perfbench/README.md).
The benchmark is the Rust package in perfbench/, built with cargo against
the repository's crates (into $CARGO_TARGET_DIR, else perfbench/target).
Each call runs the workload in a fresh process, so its memory high-water
mark is its own. Scratch files go to .bench_work/ and are removed.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is nonzero when the build fails, an answer is wrong, or the
run is invalid.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(".bench_work", f"run-{os.getpid()}")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")  # only if no other run is using it
        except OSError:
            pass
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
