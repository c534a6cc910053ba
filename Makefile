# Tier-1 gate and convenience targets. `make check` is what every PR must
# keep green (see README.md); `make race` adds the data-race gate over the
# whole module (every package may run under the multi-core executor now);
# `make chaos` runs the transport fault-injection suite under the race
# detector; `make exec` is the raced gate over the one executor body —
# conservative pacing, speculation, checkpoint capture and restore; `make e2e`
# vets and tests the end-to-end benchmark module, which the root module's
# build and tests do not reach; `make bench` runs every Go benchmark once
# as a smoke test (performance is recorded only by BENCHMARK.json's
# bench/e2e workloads); `make loc` prints the per-package code-line table
# simplicity PRs report before and after.

GO ?= go

.PHONY: check build vet test race chaos exec scale e2e bench loc all

all: check race

check: vet build test chaos exec scale e2e

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Executor gate: ExecutionPlan.Execute is one body, so its modes race-test
# together. Parallel digest/wake/yield/profiling tests (nondeterminism and
# data races among concurrent runners), the speculation digest/rollback/leap
# properties and the remote-rejection contracts, checkpoints restoring
# bit-identically across placements, modes and GOMAXPROCS levels, the
# warm-started sweep's identity point matching its cold run, and the
# scheduler's delivery lanes (their contents are pending events, so
# snapshots, rollbacks and checkpoints export, discard and restore them) —
# plus the rollback fuzz seed corpus.
exec:
	$(GO) test -race \
		-run 'TestParallel|TestOptimistic|TestCheckpoint|TestLoadCheckpoint|TestWarmStart|TestLane' \
		./internal/sim/ ./internal/link/ ./internal/orch/ ./internal/profiler/ ./internal/experiments/
	$(GO) test -run 'FuzzOptimisticRollback' ./internal/orch/

# Fault-injection suite: supervised transport under connection kills,
# garbles, and delays, with goroutine-leak accounting — raced.
chaos:
	$(GO) test -race -run 'TestSupervised|TestSupervisor|TestDistributed' \
		./internal/proxy/ ./internal/orch/

# Datacenter-fabric smoke: a small prefix-routed Clos must build, route,
# and complete incast + shuffle workloads with zero frame leaks; every
# switch's compiled route table must answer like the per-IP-map plus
# per-length-maps oracle (seeded random install sequences and the fuzz
# seed corpus), reject prefixes longer than 32 bits, and look up without
# allocating; the flow-level background tier must run a mixed-fidelity
# phase without materializing background hosts, and its link-side rate
# solver must match the flow-side oracle bit for bit (random mixes, edge
# cases, Poisson churn) without allocating in steady state.
scale:
	$(GO) test -run 'TestScaleSmoke|TestScaleMixedSmoke' ./internal/experiments/
	$(GO) test -run 'TestRoute|FuzzRouteTable' ./internal/netsim/
	$(GO) test -run 'TestFlowSmoke|TestSolver|TestRecomputeSteadyStateAllocs' ./internal/netsim/flowsim/

# End-to-end benchmark module: bench/e2e is a Go module of its own, so the
# root `go build ./... && go test ./...` does not notice when an exported
# orch/link name it depends on changes. Its tests hold every workload's
# golden digest.
e2e:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

# Benchmark smoke: one iteration of every Benchmark*, recording nothing.
# Several fail on a broken invariant (e.g. BenchmarkLaneBacklog's 0
# allocs/op), so this is a gate, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Non-test, non-comment, non-blank Go lines per package.
loc:
	@sh scripts/loc.sh
