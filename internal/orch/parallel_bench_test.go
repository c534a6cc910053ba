package orch_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// The parallel benchmarks run the placement suite's graph and placements
// with the Parallel mode spelled out, in the same ns-per-event unit; the
// two suites now run the same executor, and both series stay so that
// BENCH_placement.json's history continues.

func benchParallel(b *testing.B, groups func() decomp.Placement) {
	b.ReportAllocs()
	var done uint64
	for done < uint64(b.N) {
		s, _ := buildRandom(benchSeed, benchComps)
		_, events := execute(b, s, groups(), benchEnd, orch.RunOptions{Mode: orch.Parallel})
		done += events
	}
}

func BenchmarkParallelColoc(b *testing.B) {
	benchParallel(b, func() decomp.Placement { return decomp.SingleGroup(benchComps) })
}

func BenchmarkParallelPairs(b *testing.B) {
	benchParallel(b, func() decomp.Placement {
		groups := make([]int, benchComps)
		for i := range groups {
			groups[i] = i / 2
		}
		return decomp.Placement{Name: "pairs", Groups: groups}
	})
}

func BenchmarkParallelPerComp(b *testing.B) {
	benchParallel(b, func() decomp.Placement { return decomp.PerComponent(benchComps) })
}

// SyncLight isolates horizon advancement: two chatter components joined by
// a single channel, run per-component so the channel is genuinely
// synchronized, whose chatter periods are several lookahead windows long,
// so most sync exchanges carry no data.
func buildSyncLight() *orch.Simulation {
	s := orch.New()
	ca := &chatter{name: "a", period: 64 * sim.Microsecond, rng: sim.NewRand(1)}
	cb := &chatter{name: "b", period: 96 * sim.Microsecond, rng: sim.NewRand(2)}
	s.Add(ca)
	s.Add(cb)
	ca.ports = append(ca.ports, nil)
	cb.ports = append(cb.ports, nil)
	s.Connect("light", 16*sim.Microsecond,
		orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[0] = p }, Sink: ca.sink(0)},
		orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[0] = p }, Sink: cb.sink(0)})
	return s
}

func BenchmarkParallelSyncLight(b *testing.B) {
	b.ReportAllocs()
	var done uint64
	for done < uint64(b.N) {
		_, events := execute(b, buildSyncLight(), decomp.PerComponent(2), benchEnd, orch.RunOptions{})
		done += events
	}
}
