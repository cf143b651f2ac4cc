#!/usr/bin/env python3
"""Build the end-to-end solver benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload jacobi-converge --seed 1 --seconds 30 --trace 0

The Go build cache and the binary live in the build directory named by
CARGO_TARGET_DIR (default .bench_build), so the benchmark reads and
writes only inside the checkout. Every argument is passed to the
benchmark binary; its exit code is this script's exit code.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: the last line of standard output is
    # reserved for the benchmark's JSON record.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
