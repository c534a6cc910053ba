package orch_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// The parallel benchmarks mirror the placement suite under the Parallel
// mode (batched horizon windows) so BENCH_placement.json tracks both modes
// over the same graph and the same ns-per-event unit. The interesting
// number is the batching: the SyncLight pair below runs a channel whose
// sync interval is latency/8, where batched windows cut the fabric sync
// traffic ~8x whether or not real cores are available.

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

// The SyncLight pair isolates batched horizon advancement: two chatter
// components joined by a single channel whose sync interval is latency/8,
// run per-component so the channel is genuinely synchronized. Coupled mode
// pays a sync exchange every interval; Parallel mode covers a whole
// lookahead window per exchange — an ~8x cut in fabric sync
// traffic that shows up in ns/event even on one core.
func buildSyncLight() *orch.Simulation {
	s := orch.New()
	ca := &chatter{name: "a", period: 64 * sim.Microsecond, rng: sim.NewRand(1)}
	cb := &chatter{name: "b", period: 96 * sim.Microsecond, rng: sim.NewRand(2)}
	s.Add(ca)
	s.Add(cb)
	ca.ports = append(ca.ports, nil)
	cb.ports = append(cb.ports, nil)
	s.Connect("light", 16*sim.Microsecond, 2*sim.Microsecond,
		orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[0] = p }, Sink: ca.sink(0)},
		orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[0] = p }, Sink: cb.sink(0)})
	return s
}

func benchSyncLight(b *testing.B, mode orch.Mode) {
	b.ReportAllocs()
	var done uint64
	for done < uint64(b.N) {
		_, events := execute(b, buildSyncLight(), decomp.PerComponent(2), benchEnd, orch.RunOptions{Mode: mode})
		done += events
	}
}

func BenchmarkCoupledSyncLight(b *testing.B)  { benchSyncLight(b, orch.Coupled) }
func BenchmarkParallelSyncLight(b *testing.B) { benchSyncLight(b, orch.Parallel) }
