# Tier-1 gate and convenience targets. `make check` is what every PR must
# keep green (see README.md); `make race` adds the data-race gate over the
# whole module (every package may run under the multi-core executor now);
# `make chaos` runs the scale-out transport's forwarding and failure tests
# under the race detector; `make exec` is the raced gate over the one
# executor body — conservative pacing, speculation, checkpoint capture and
# restore; `make e2e` vets and tests the end-to-end benchmark module, which
# the root module's build and tests do not reach; `make bench` runs every
# Go benchmark once as a smoke test (performance is recorded only by
# BENCHMARK.json's bench/e2e workloads); `make examples` runs every program
# under examples/ to completion; `make scale` is a local smoke run of the
# fabric tests that `make test` already covers; `make loc` prints the
# per-package code-line table simplicity PRs report before and after;
# `make traffic` prints the non-test functions that no experiment, example,
# CLI invocation or benchmark workload reaches and fails unless they are
# exactly the ones scripts/unreached.txt lists (the ratchet, part of
# `check`; about 35 s on two cores); `make fmt` fails on any file gofmt
# would rewrite.

GO ?= go

.PHONY: check fmt build vet test race chaos exec scale e2e examples bench loc traffic all

all: check race

check: fmt vet build test chaos exec e2e examples traffic

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Executor gate: Execute (conservative) and RunOptimistic (speculative) share
# one executor body, so they race-test together. Parallel
# digest/wake/yield/profiling tests (nondeterminism and
# data races among concurrent runners), the speculation digest/rollback/leap
# properties and the remote-rejection contracts, checkpoints restoring
# bit-identically across placements, with and without speculation, and at
# every GOMAXPROCS level (with
# restore cost independent of fabric size, a build whose sink walk
# differs rejected before any event posts, a restore into a build
# whose TCP connections differ rejected, and a capture taken with frames
# inside switch pipelines resuming to the uninterrupted state under one
# group and two, and a capture taken inside a lag window — memory requests
# and responses arrived but not yet delivered, frames that crossed a
# partition boundary into a switch pipeline — resuming likewise), the
# warm-started sweep's identity point matching its cold run, the
# scheduler's delivery lanes (their contents are pending events, so
# snapshots, rollbacks and checkpoints export, discard and restore them)
# and its calendar event queue (the same paths walk the wheel and its heap
# spill, and must pop in (time, source, sequence) order throughout) —
# plus the rollback fuzz seed corpus and the configuration-boundary fuzz seed
# corpus (malformed systems return typed errors, valid ones instantiate and
# run). The plan's bundles are the only trunk
# adapter: cut channels bundled onto one endpoint pair must keep their own
# message counts (checkpoint bytes), print their bundle, and fold into one
# modeled link (ModelGraph), and a partitioned build must deliver every
# boundary link at its own delay, as the monolithic build does, under the
# sequential and the per-component executor (WirePartitions).
# Lagged sinks (core.Lagger): a lagged delivery lands at send + latency +
# lag and widens its endpoint's horizon by the least lag over the sinks it
# feeds (a bundle with a lag-0 sub keeps plain latency), the plan prints the
# lookahead per direction, and runs stopped inside a lag window count the
# window's arrivals exactly — memsim Txns, cost, Blocks and StallTime equal
# to a lag-free reference model, boundary RxFrames and switch RxPackets and
# NoRoute equal to the unpartitioned network — under the sequential,
# blocked2, per-component and monolithic runs; the v4 checkpoint format is
# rejected with ErrVersion (TestLoadCheckpoint).
exec:
	$(GO) test -race \
		-run 'TestParallel|TestOptimistic|TestCheckpoint|TestLoadCheckpoint|TestWarmStart|TestLane|TestEventQueue|TestModelGraph|TestPlanDescribes|TestMergePlacement|TestWirePartitions|TestLaggedSink|TestLagWindow' \
		./internal/sim/ ./internal/link/ ./internal/orch/ ./internal/profiler/ ./internal/experiments/ ./internal/decomp/ ./internal/instantiate/
	$(GO) test -run 'FuzzOptimisticRollback' ./internal/orch/
	$(GO) test -run 'FuzzSystemInstantiate' ./internal/config/

# Scale-out transport suite, raced: proxy.Forward matching the in-process
# run on one and on two multiplexed channels, and failing typed on both
# sides with no leaked goroutine when the connection is killed mid-stream
# (ErrClosed), a bit is flipped in a frame's body or its length prefix
# (ErrCorrupt) or the channel counts differ
# (ErrHandshake); plus the distributed run matching the monolithic one
# under both placements.
chaos:
	$(GO) test -race -run 'TestForward|TestDistributed' \
		./internal/proxy/ ./internal/orch/

# Datacenter-fabric smoke for local runs (`make test` runs every test named
# here, so `check` does not repeat them): a small prefix-routed Clos must
# build, route, and complete incast + shuffle workloads with zero frame
# leaks; every switch's compiled route table must answer like the
# per-IP-map plus per-length-maps oracle (seeded random install sequences
# and the fuzz seed corpus), reject prefixes longer than 32 bits, and look
# up without allocating; the flow-level background tier must run a
# mixed-fidelity phase without materializing background hosts, and its
# link-side rate solver must match the flow-side oracle bit for bit (random
# mixes, edge cases, Poisson churn) without allocating in steady state; and
# its switch-major batch admission must agree with a per-flow hop-by-hop
# Switch.Route walk (monolithic and partitioned, past one chunk, unroutable
# destinations, a lone synthetic arrival, checkpoint restore) and allocate
# only the slab chunks its flows and link arrays fill; a Poisson-arrival
# run must allocate nothing once its free list is warm, and a churn run
# that recycles retired flows must report the pinned counts, FCT
# percentiles and packet-event projection; and the one-event cut-through
# switch hop must end a seeded Clos run (blackholed frames and frames left
# mid-pipeline included) in the state the two-event hop a pass-through
# dataplane forces reaches, one event fewer per forwarded arrival. Fabric
# memory comes from slabs: building a lazy 10-pod Clos allocates
# O(switches + slab chunks), not O(interfaces), and interface pointers stay
# put while lazy slots materialize and external ports are added.
scale:
	$(GO) test -run 'TestScaleSmoke|TestScaleMixedSmoke' ./internal/experiments/
	$(GO) test -run 'TestRoute|FuzzRouteTable|TestCutThrough|TestIfacePointersStable' ./internal/netsim/
	$(GO) test -run 'TestBuildAllocs' ./internal/netsim/topogen/
	$(GO) test -run 'TestFlowSmoke|TestSolver|TestRecomputeSteadyStateAllocs|TestBatchAdmission|TestAdmissionAllocs|TestArrivalAllocs|TestRecycledFlowsReport' ./internal/netsim/flowsim/

# End-to-end benchmark module: bench/e2e is a Go module of its own, so the
# root `go build ./... && go test ./...` does not notice when an exported
# orch/link name it depends on changes. Its tests hold every workload's
# golden digest.
e2e:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

# Example programs: `go build ./...` only compiles examples/*, so run each
# one and fail on a non-zero exit. None writes a file.
examples:
	@for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Benchmark smoke: one iteration of every Benchmark*, recording nothing.
# Several fail on a broken invariant (e.g. BenchmarkLaneBacklog's 0
# allocs/op), so this is a gate, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Non-test, non-comment, non-blank Go lines per package.
loc:
	@sh scripts/loc.sh

# Traffic map and ratchet: coverage-built splitsim, wtpg, examples and
# bench/e2e children, driven once each; fails when the unreached functions
# differ from scripts/unreached.txt ("<file> <name><TAB><reason>" per line).
# Binaries and counters live in a mktemp -d directory.
traffic:
	@sh scripts/traffic.sh
