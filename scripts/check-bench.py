#!/usr/bin/env python3
"""Validate a `nscsim -bench-json` report.

Usage: check-bench.py bench.json   (or "-" for stdin)

The emitter's JSON is the machine-readable face of the repo's
performance probes; CI runs this checker on a fresh report so a probe
silently dropped from the emitter, a record that lost its allocation
accounting, or a fast path that started allocating again fails the
build instead of rotting quietly. Wall-clock magnitudes are NOT
checked — they belong to the host — only shape and invariants.
"""
import json
import sys

# Every probe the emitter must report. New probes may be appended
# freely; removing one is a CI failure until this list agrees.
REQUIRED = [
    "engine-overlap/overlap",
    "plan-cache/warm-exec",
    "kernel-exec/warm",
    "kernel-exec/interp",
    "trap-overhead/off",
    "trap-overhead/armed",
    "compile-cache/cold",
    "compile-cache/warm-hit",
    "obs-overhead/disabled",
    "obs-overhead/enabled",
    "recovery-overhead/clean",
    "recovery-overhead/buddy-clean",
    "recovery-overhead/kill-spare",
    "recovery-overhead/kill-shrink",
    "topology-jacobi/hypercube",
    "topology-jacobi/mesh2d",
    "topology-jacobi/torus2d",
    "topology-multigrid/hypercube",
    "topology-multigrid/mesh2d",
    "topology-multigrid/torus2d",
]

# The specialized-kernel fast path must stay allocation-free; one
# alloc/op of slack absorbs the amortized first-dispatch plan compile.
MAX_KERNEL_WARM_ALLOCS = 1


def fail(msg):
    print(f"check-bench: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path):
    with sys.stdin if path == "-" else open(path) as f:
        recs = json.load(f)

    if len(recs) < len(REQUIRED):
        fail(f"{len(recs)} records, want at least {len(REQUIRED)}")

    by_name = {}
    for i, rec in enumerate(recs):
        for field in ("name", "iterations", "ns_per_op", "allocs_per_op"):
            if field not in rec:
                fail(f"record {i} ({rec.get('name', '?')}): missing {field!r}")
        if rec["iterations"] <= 0 or rec["ns_per_op"] <= 0:
            fail(f"{rec['name']}: non-positive measurement: {rec}")
        if rec["allocs_per_op"] < 0:
            fail(f"{rec['name']}: negative allocs_per_op")
        by_name[rec["name"]] = rec

    missing = [name for name in REQUIRED if name not in by_name]
    if missing:
        fail(f"missing records: {', '.join(missing)}")

    warm = by_name["kernel-exec/warm"]
    warm_m = warm.get("metrics") or {}
    if warm["allocs_per_op"] > MAX_KERNEL_WARM_ALLOCS:
        fail(
            f"kernel-exec/warm allocates {warm['allocs_per_op']} per op "
            f"(max {MAX_KERNEL_WARM_ALLOCS}): the kernel fast path must stay allocation-free"
        )
    if warm_m.get("kernel_slow", 1) != 0:
        fail(f"kernel-exec/warm took the interpreter: {warm_m}")
    interp = by_name["kernel-exec/interp"]
    interp_m = interp.get("metrics") or {}
    if interp_m.get("kernel_fast", 1) != 0:
        fail(f"kernel-exec/interp took the kernel path: {interp_m}")
    if interp_m.get("slowdown", 0) <= 1:
        fail(
            f"interpreter not slower than the kernel "
            f"(slowdown {interp_m.get('slowdown')}): specialization regressed"
        )

    print(f"check-bench: {len(recs)} records ok "
          f"(kernel warm {warm['ns_per_op']:.0f} ns/op, "
          f"{warm['allocs_per_op']:.0f} allocs/op, "
          f"interp slowdown {interp_m['slowdown']:.1f}x)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        fail("usage: check-bench.py bench.json")
    main(sys.argv[1])
