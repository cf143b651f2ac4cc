#!/bin/sh
# loc.sh — the repository's line-count report.
#
# Prints two numbers: the non-test Go lines outside perfbench/ (the
# program size each change reports in CHANGES.md) and the Go test lines
# outside perfbench/. Lines are physical lines (wc -l), comments and
# blank lines included. perfbench/ is a separate benchmark module and is
# counted by neither figure.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

count() {
    find . -name '*.go' -not -path './perfbench/*' -not -path './.*' "$@" -exec cat {} + | wc -l | tr -d ' '
}

echo "non-test Go outside perfbench/: $(count -not -name '*_test.go') lines"
echo "test Go outside perfbench/:     $(count -name '*_test.go') lines"
