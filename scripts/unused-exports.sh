#!/bin/sh
# unused-exports.sh — exported functions and methods nothing else calls.
#
# Lists every exported top-level func and method declared in non-test
# Go outside perfbench/ whose name appears, as a whole word, in no
# other non-test Go file. perfbench/, cmd/ and examples/ count as
# callers. A name used only by its own file and its tests is reported;
# a name shared with an unrelated caller hides it (the match is by
# word, not by type), so the list is a floor, not a verdict. Methods
# that satisfy standard-library interfaces (String, Error, ...) are
# skipped: nothing names them at the call site.
#
# Prints one "file:line: name" per finding and a count; always exits 0.
#
# Usage: scripts/unused-exports.sh   (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

all=$(find . -name '*.go' -not -name '*_test.go' -not -path './.*' | sort)
decls=$(echo "$all" | grep -v '^\./perfbench/')

found=$(
    for f in $decls; do
        others=$(echo "$all" | grep -vx "$f")
        # "line name" for each exported top-level func or method.
        grep -n '^func ' "$f" |
            sed -n 's/^\([0-9]*\):func \(([^)]*) \)\{0,1\}\([A-Z][A-Za-z0-9_]*\)[[(].*/\1 \3/p' |
            while read -r line name; do
                case $name in
                String | Error | Unwrap | Format | GoString | Write | Read | WriteTo | ReadFrom | \
                    Len | Less | Swap | MarshalJSON | UnmarshalJSON) continue ;;
                esac
                # shellcheck disable=SC2086
                if ! grep -qw -- "$name" $others; then
                    echo "${f#./}:$line: $name"
                fi
            done
    done
)
if [ -n "$found" ]; then
    echo "$found"
    echo "unused exported funcs/methods: $(echo "$found" | wc -l | tr -d ' ')"
else
    echo "unused exported funcs/methods: 0"
fi
