package orch_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// The placement benchmarks measure ns per simulated event for the same
// 8-component graph under placements from fully co-located (1 group, every
// channel a zero-sync direct port) to fully decomposed (8 groups, every
// channel synchronized). Each benchmark loops whole runs until b.N events
// have been processed, so ns/op reads as ns/event and the co-location fast
// path is directly comparable with the synchronized placements.

const (
	benchSeed  = 11
	benchComps = 8
	benchEnd   = 2 * sim.Millisecond
)

func benchPlacement(b *testing.B, p decomp.Placement) {
	b.ReportAllocs()
	var done uint64
	for done < uint64(b.N) {
		s, _ := buildRandom(benchSeed, benchComps)
		_, events := execute(b, s, p, benchEnd, orch.RunOptions{})
		done += events
	}
}

func BenchmarkPlacementColoc(b *testing.B) {
	benchPlacement(b, decomp.SingleGroup(benchComps))
}

func BenchmarkPlacementPairs(b *testing.B) {
	benchPlacement(b, pairsPlacement(benchComps))
}

func BenchmarkPlacementPerComp(b *testing.B) {
	benchPlacement(b, decomp.PerComponent(benchComps))
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
