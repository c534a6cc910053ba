#!/bin/sh
# Regenerate the repository's benchmark-baseline files. Runs the link,
# fabric, scheduler, placement, substrate, and datacenter-scale suites and
# appends one revision entry to BENCH_link.json / BENCH_fabric.json /
# BENCH_sched.json / BENCH_placement.json / BENCH_netsim.json /
# BENCH_scale.json via cmd/benchjson. Every perf-relevant PR should run
# this and commit the updated files so the repository carries its own perf
# trajectory.
#
# After each suite, benchjson prints a diff against the latest committed
# entry and flags ns/op slowdowns beyond 20%. Set BENCH_STRICT=1 to make
# such a regression fail the script (CI runs the benches as a non-blocking
# advisory step).
#
# Usage: scripts/bench.sh [rev-label]
# The label defaults to the current git short hash.
set -e
cd "$(dirname "$0")/.."

REV="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo dev)}"
COUNT="${BENCH_COUNT:-3}"
TIME="${BENCH_TIME:-1s}"
STRICT=""
[ -n "$BENCH_STRICT" ] && STRICT="-fail-on-regress"

echo "== link fabric benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkDrain|BenchmarkPipe|BenchmarkCoupled' \
    -benchtime "$TIME" -count "$COUNT" ./internal/link/ |
    go run ./cmd/benchjson -suite link -out BENCH_link.json -rev "$REV" $STRICT

echo "== SPSC ring benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkFabric' \
    -benchtime "$TIME" -count "$COUNT" ./internal/link/ |
    go run ./cmd/benchjson -suite fabric -out BENCH_fabric.json -rev "$REV" $STRICT

echo "== scheduler benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkTimerChurn|BenchmarkQueueChurn|BenchmarkSchedulerMixed' \
    -benchtime "$TIME" -count "$COUNT" ./internal/sim/ |
    go run ./cmd/benchjson -suite sched -out BENCH_sched.json -rev "$REV" $STRICT

# The placement suite covers the one executor under both modes:
# conservative, the one-group sequential plan included (BenchmarkPlacement*
# and BenchmarkParallel*, one series each since the two were once different
# pacings), and optimistic (BenchmarkOptimistic*). The optimistic and
# ParallelLatencyDominated benchmarks sweep GOMAXPROCS 1/2/4 as P1/P2/P4
# sub-benchmarks, and each optimistic point reports an xspeedup metric over
# the conservative mode at the same concurrency.
echo "== placement benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkPlacement|BenchmarkParallel|BenchmarkOptimistic' \
    -benchtime "$TIME" -count "$COUNT" ./internal/orch/ |
    go run ./cmd/benchjson -suite placement -out BENCH_placement.json -rev "$REV" $STRICT

echo "== substrate packet-path benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkSubstrate' \
    -benchtime "$TIME" -count "$COUNT" \
    ./internal/netsim/ ./internal/nicsim/ ./internal/tcpstack/ |
    go run ./cmd/benchjson -suite netsim -out BENCH_netsim.json -rev "$REV" $STRICT

# The scale suite builds 10⁴–10⁶-host fabrics per iteration; one iteration
# per benchmark is representative and keeps the wall time sane. It records
# the tentpole metrics pkts/s (sustained simulated packets per wall-clock
# second), bytes/host (resident routing state), endpoints (fabric size for
# the mixed-fidelity million-endpoint run), and x-events (packet-event
# projection over flow-tier events) alongside ns/op.
echo "== datacenter-scale fabric benchmarks (rev $REV) =="
go test -run '^$' -bench 'BenchmarkScale' \
    -benchtime "${BENCH_SCALE_TIME:-1x}" -count "$COUNT" -timeout 30m \
    ./internal/netsim/topogen/ ./internal/netsim/flowsim/ |
    go run ./cmd/benchjson -suite scale -out BENCH_scale.json -rev "$REV" $STRICT
