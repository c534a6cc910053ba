#!/bin/sh
# Print the traffic map: the module's non-test functions that no experiment,
# example or benchmark workload reaches. Every program is built with
# statement coverage over the whole module, then driven the way people use
# it: `splitsim run all -scale 0.02`, each program under examples/, and one
# traced run of each bench/e2e workload. The functions still at 0.0% are
# printed as file:line name, followed by their count. The benchmark's own
# harness is left out of the list: its workload children run directly, one
# each, so its driver code is never meant to run.
# Binaries, coverage counters, trace files and temporary files all go to
# one mktemp -d directory, removed on exit; nothing is written into the
# checkout. It takes about a minute on two cores.
#
# Usage: scripts/traffic.sh   (or: make traffic)
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/out"
export GOCOVERDIR="$tmp/cov" TMPDIR="$tmp" GOWORK=off
cover="-cover -covermode=set -coverpkg=repro/..."

go build $cover -o "$tmp/bin/splitsim" ./cmd/splitsim
for d in examples/*/; do
    go build $cover -o "$tmp/bin/ex-$(basename "$d")" "./$d"
done
(cd bench/e2e && go build $cover -o "$tmp/bin/e2e" .)

"$tmp/bin/splitsim" run all -scale 0.02 > /dev/null
for d in examples/*/; do
    "$tmp/bin/ex-$(basename "$d")" > /dev/null
done
for w in $(sed -n 's/.*{name: "\([a-z0-9_]*\)".*/\1/p' bench/e2e/workloads.go); do
    "$tmp/bin/e2e" -child -workload "$w" -trace 1 -out "$tmp/out" > /dev/null
done

go tool covdata func -i "$tmp/cov" > "$tmp/func.txt"
sed "s|^repro/||; s|^$root/||" "$tmp/func.txt" |
    awk '$NF == "0.0%" && $1 !~ /^bench\// { print $1, $2; n++ }
         END { print n + 0, "functions unreached" }'
