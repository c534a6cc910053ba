#!/bin/sh
# Traffic map and ratchet: the module's non-test functions that no
# experiment, example, CLI invocation or benchmark workload reaches must be
# exactly the ones scripts/unreached.txt lists.
#
# Every program is built with statement coverage over the whole module,
# then driven the way people use it:
#   - `splitsim run all -scale 0.02`, one optimistic placed run, `splitsim
#     plan` for every plannable experiment and `splitsim list`;
#   - `wtpg` in both formats on the committed profile in cmd/wtpg/testdata;
#   - bad-flag and unknown-name invocations of both CLIs, each of which
#     must exit non-zero;
#   - each program under examples/;
#   - one traced run of each bench/e2e workload.
# The benchmark's own harness is left out of the map: its workload children
# run directly, one each, so its driver code is never meant to run.
# Functions with no statements (empty bodies) are left out too: coverage
# reports them at 0.0% whether or not they run.
#
# The functions still at 0.0% are printed as file:line name with their
# count. The script then compares them, by "file name" and not by line, with
# scripts/unreached.txt and exits 1 when a function is unreached but not
# listed (reach it, delete it, or list it with a reason) or listed but now
# reached (delete its line). The list therefore only shrinks unless a change
# adds a line on purpose.
#
# unreached.txt format: one function per line, "<file> <name><TAB><reason>",
# where <file> is the path from the repository root and <name> is as `go
# tool covdata func` prints it (e.g. "*Runner.specDemote"). Blank lines and
# lines starting with # are ignored. Every entry needs a reason.
#
# Binaries, coverage counters, trace files and temporary files all go to
# one mktemp -d directory, removed on exit; nothing is written into the
# checkout. It takes under a minute on two cores.
#
# Usage: scripts/traffic.sh   (or: make traffic; make check runs it)
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/out"
export GOCOVERDIR="$tmp/cov" TMPDIR="$tmp" GOWORK=off
cover="-cover -covermode=set -coverpkg=repro/..."

go build $cover -o "$tmp/bin/splitsim" ./cmd/splitsim
go build $cover -o "$tmp/bin/wtpg" ./cmd/wtpg
for d in examples/*/; do
    go build $cover -o "$tmp/bin/ex-$(basename "$d")" "./$d"
done
(cd bench/e2e && go build $cover -o "$tmp/bin/e2e" .)

# mustfail runs a command that has to exit non-zero.
mustfail() {
    if "$@" > /dev/null 2>&1; then
        echo "traffic: expected a non-zero exit from: $*" >&2
        exit 1
    fi
}

splitsim="$tmp/bin/splitsim"
"$splitsim" list > /dev/null
"$splitsim" run all -scale 0.02 > /dev/null
"$splitsim" run placement -scale 0.02 -optimistic > /dev/null
for e in $("$splitsim" 2>&1 | sed -n 's/^plannable: \[\(.*\)\]$/\1/p'); do
    "$splitsim" plan "$e" -scale 0.02 > /dev/null
done
mustfail "$splitsim"
mustfail "$splitsim" run nosuch
mustfail "$splitsim" run fig4 -optimistic=0
mustfail "$splitsim" plan fig4

prof=cmd/wtpg/testdata/parallel.prof
"$tmp/bin/wtpg" "$prof" > /dev/null
"$tmp/bin/wtpg" -format dot "$prof" > /dev/null
mustfail "$tmp/bin/wtpg" -format nosuch "$prof"
mustfail "$tmp/bin/wtpg" "$tmp/nosuch.prof"

for d in examples/*/; do
    "$tmp/bin/ex-$(basename "$d")" > /dev/null
done
for w in $(sed -n 's/.*{name: "\([a-z0-9_]*\)".*/\1/p' bench/e2e/workloads.go); do
    "$tmp/bin/e2e" -child -workload "$w" -trace 1 -out "$tmp/out" > /dev/null
done

# func.txt: "file:line: name pct" per function; blocks.txt: "file line" per
# coverage block holding at least one statement.
go tool covdata func -i "$tmp/cov" | sed "s|^repro/||; s|^$root/||" |
    awk '$1 ~ /:[0-9]+:$/ && $1 !~ /^bench\//' > "$tmp/func.txt"
go tool covdata textfmt -i "$tmp/cov" -o "$tmp/prof.txt"
sed "1d; s|^repro/||" "$tmp/prof.txt" |
    awk '{ split($1, a, ":"); split(a[2], b, "."); if ($2 > 0) print a[1], b[1] }' |
    sort -u > "$tmp/blocks.txt"

# A function owns the blocks from its own line up to the next function's
# line in the same file; one with none has no statements and is skipped.
awk '
NR == FNR { blk[$1] = blk[$1] " " $2; next }
{
    split($1, a, ":"); f = a[1]; n[f]++
    line[f, n[f]] = a[2] + 0; name[f, n[f]] = $2; pct[f, n[f]] = $NF
}
END {
    for (f in n) for (i = 1; i <= n[f]; i++) {
        if (pct[f, i] != "0.0%") continue
        lo = line[f, i]; hi = i < n[f] ? line[f, i + 1] : 1e9
        k = split(blk[f], bl, " "); has = 0
        for (j = 1; j <= k; j++) if (bl[j] + 0 >= lo && bl[j] + 0 < hi) { has = 1; break }
        if (has) print f ":" lo ":", name[f, i]
    }
}' "$tmp/blocks.txt" "$tmp/func.txt" | sort -t: -k1,1 -k2,2n > "$tmp/map.txt"

cat "$tmp/map.txt"
echo "$(wc -l < "$tmp/map.txt") functions unreached"

# Ratchet against the committed list.
list=scripts/unreached.txt
awk '{ sub(/:[0-9]+:$/, "", $1); print $1, $2 }' "$tmp/map.txt" | sort > "$tmp/got.txt"
awk -F '\t' '!/^#/ && NF {
    if (NF < 2 || $2 == "") { print "traffic: " FILENAME ":" NR ": no reason given" > "/dev/stderr"; bad = 1 }
    print $1 } END { exit bad }' "$list" > "$tmp/want.raw"
sort "$tmp/want.raw" > "$tmp/want.txt"
status=0
if comm -23 "$tmp/got.txt" "$tmp/want.txt" | grep .; then
    echo "traffic: unreached but not in $list (reach, delete, or list with a reason): above" >&2
    status=1
fi
if comm -13 "$tmp/got.txt" "$tmp/want.txt" | grep .; then
    echo "traffic: listed in $list but reached now (delete the line): above" >&2
    status=1
fi
exit $status
