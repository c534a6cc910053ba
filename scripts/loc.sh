#!/bin/sh
# Count the module's code the way the simplicity PRs report it: Go lines that
# are not in a _test.go file, not blank and not a // comment line, per
# package directory under internal/ and cmd/ plus splitsim.go, with a total.
# Run it at the parent commit and at the change and report both tables.
#
# Usage: scripts/loc.sh   (or: make loc)
set -e
cd "$(dirname "$0")/.."

count() { cat "$@" 2>/dev/null | grep -vE '^[[:space:]]*(//|$)' | wc -l; }

total=0
for d in $(find internal cmd -type d | sort); do
    files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
    [ -n "$files" ] || continue
    n=$(count $files)
    printf '%-32s %6d\n' "$d" "$n"
    total=$((total + n))
done
n=$(count splitsim.go)
printf '%-32s %6d\n' splitsim.go "$n"
printf '%-32s %6d\n' total $((total + n))
