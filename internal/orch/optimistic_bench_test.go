package orch_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// The optimistic benchmarks measure ns per simulated event under
// speculation (the Speculate hook at DefaultSpecWindows), over the same
// done-events loop as the placement suite so both executors read in one
// unit. Each benchmark sweeps GOMAXPROCS 1/2/4 as
// P1/P2/P4 sub-benchmarks (levels the machine has no CPUs for skip) and
// reports an xspeedup metric — the conservative parallel executor's
// ns/event on the identical graph and placement, measured once per
// (benchmark, procs) pair, divided by the optimistic ns/event — so every
// data point carries its own baseline regardless of which benchmarks ran.
//
// The headline graph is LatencyDominated: chatter periods ~100x the channel
// latency, so the conservative executor climbs a ladder of empty sync
// windows between events while the optimistic executor's GVT leap jumps
// straight to the next event time. That is where the paper-motivated win
// lives, and it shows up even on one core because the ladder is pure
// overhead, not parallelizable work.

// specProcs are the GOMAXPROCS levels every optimistic benchmark sweeps.
var specProcs = []int{1, 2, 4}

// sweepProcs runs fn as a P<n> sub-benchmark at each GOMAXPROCS level of
// specProcs. A level above the machine's CPU count skips: its runners would
// time-share cores, and the result would report that oversubscription as if
// it were a scaling point.
func sweepProcs(b *testing.B, fn func(b *testing.B, procs int)) {
	for _, procs := range specProcs {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			if n := runtime.NumCPU(); procs > n {
				b.Skipf("GOMAXPROCS %d on %d CPUs measures oversubscription, not scaling", procs, n)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(b, procs)
		})
	}
}

// specRefMinEvents sizes the conservative baseline measurement.
const specRefMinEvents = 2000

// specRefNs caches the parallel executor's ns/event per (benchmark, procs)
// key so -count repetitions and metric reporting reuse one measurement.
var specRefNs = map[string]float64{}

func parallelRefNs(b *testing.B, key string,
	build func() (*orch.Simulation, []*specChatter), p decomp.Placement) float64 {
	if ns, ok := specRefNs[key]; ok {
		return ns
	}
	var events uint64
	start := time.Now()
	for events < specRefMinEvents {
		s, _ := build()
		_, n := execute(b, s, p, benchEnd, orch.RunOptions{})
		events += n
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(events)
	specRefNs[key] = ns
	return ns
}

// benchOptimistic is the shared harness: for each procs level, run whole
// optimistic executions until b.N events have been processed.
func benchOptimistic(b *testing.B, name string,
	build func() (*orch.Simulation, []*specChatter), p decomp.Placement) {
	sweepProcs(b, func(b *testing.B, procs int) {
		ref := parallelRefNs(b, fmt.Sprintf("%s/P%d", name, procs), build, p)
		b.ReportAllocs()
		b.ResetTimer()
		var done uint64
		start := time.Now()
		for done < uint64(b.N) {
			s, _ := build()
			_, _, events := speculate(b, s, p, benchEnd, orch.RunOptions{}, orch.DefaultSpecWindows)
			done += events
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(done); ns > 0 {
			b.ReportMetric(ref/ns, "xspeedup")
		}
	})
}

// benchParallelRef mirrors benchOptimistic with the conservative parallel
// executor, so the output carries directly comparable ns/event entries at
// each procs level.
func benchParallelRef(b *testing.B,
	build func() (*orch.Simulation, []*specChatter), p decomp.Placement) {
	sweepProcs(b, func(b *testing.B, _ int) {
		b.ReportAllocs()
		var done uint64
		for done < uint64(b.N) {
			s, _ := build()
			_, events := execute(b, s, p, benchEnd, orch.RunOptions{})
			done += events
		}
	})
}

// buildSpecSyncLight is buildSyncLight with checkpointable components: two
// chatters over one 16us channel.
func buildSpecSyncLight() (*orch.Simulation, []*specChatter) {
	s := orch.New()
	ca := newSpecChatter("a", 64*sim.Microsecond, 1)
	cb := newSpecChatter("b", 96*sim.Microsecond, 2)
	s.Add(ca)
	s.Add(cb)
	ca.ports = append(ca.ports, nil)
	cb.ports = append(cb.ports, nil)
	s.Connect("light", 16*sim.Microsecond,
		orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[0] = p }, Sink: ca.sink(0)},
		orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[0] = p }, Sink: cb.sink(0)})
	return s, []*specChatter{ca, cb}
}

// buildSpecLatencyDominated is the headline graph: a 4-component line whose
// chatter periods (400-760us) dwarf the 5us channel latency. Between events
// the conservative horizon advances one 5us rung at a time — roughly a
// hundred empty sync exchanges per event — while a GVT leap crosses the
// whole gap in one observably-empty check.
func buildSpecLatencyDominated() (*orch.Simulation, []*specChatter) {
	s := orch.New()
	comps := make([]*specChatter, 4)
	for i := range comps {
		comps[i] = newSpecChatter(fmt.Sprintf("ld%d", i),
			sim.Time(400+120*i)*sim.Microsecond, uint64(i+1)*0x9e37)
		s.Add(comps[i])
	}
	for i := 1; i < len(comps); i++ {
		ca, cb := comps[i-1], comps[i]
		pa, pb := len(ca.ports), len(cb.ports)
		ca.ports = append(ca.ports, nil)
		cb.ports = append(cb.ports, nil)
		s.Connect(fmt.Sprintf("ld%d-%d", i-1, i), 5*sim.Microsecond,
			orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[pa] = p }, Sink: ca.sink(pa)},
			orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[pb] = p }, Sink: cb.sink(pb)})
	}
	return s, comps
}

func BenchmarkOptimisticSyncLight(b *testing.B) {
	benchOptimistic(b, "SyncLight", buildSpecSyncLight, decomp.PerComponent(2))
}

func BenchmarkOptimisticLatencyDominated(b *testing.B) {
	benchOptimistic(b, "LatencyDominated", buildSpecLatencyDominated, decomp.PerComponent(4))
}

func BenchmarkParallelLatencyDominated(b *testing.B) {
	benchParallelRef(b, buildSpecLatencyDominated, decomp.PerComponent(4))
}

func pairsPlacement(n int) decomp.Placement {
	groups := make([]int, n)
	for i := range groups {
		groups[i] = i / 2
	}
	return decomp.Placement{Name: "pairs", Groups: groups}
}

func BenchmarkOptimisticPairs(b *testing.B) {
	benchOptimistic(b, "Pairs",
		func() (*orch.Simulation, []*specChatter) { return buildSpecRandom(benchSeed, benchComps) },
		pairsPlacement(benchComps))
}
