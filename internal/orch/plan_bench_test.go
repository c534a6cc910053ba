package orch_test

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// The placement benchmarks measure ns per simulated event for the same
// 8-component graph under placements from fully co-located (1 group, every
// channel a zero-sync direct port) to fully decomposed (8 groups, every
// channel synchronized). Each benchmark loops whole runs until b.N events
// have been processed, so ns/op reads as ns/event and the co-location fast
// path is directly comparable across revisions (BENCH_placement.json).

const (
	benchSeed  = 11
	benchComps = 8
	benchEnd   = 2 * sim.Millisecond
)

func benchPlacement(b *testing.B, groups func() decomp.Placement) {
	b.ReportAllocs()
	var done uint64
	for done < uint64(b.N) {
		s, _ := buildRandom(benchSeed, benchComps)
		_, events := execute(b, s, groups(), benchEnd, orch.RunOptions{})
		done += events
	}
}

// Seq is the sequential execution: the one-group plan, like Coloc — the
// pair is kept so the ledger's sequential series continues.
func BenchmarkPlacementSeq(b *testing.B) {
	benchPlacement(b, func() decomp.Placement { return decomp.SingleGroup(benchComps) })
}

func BenchmarkPlacementColoc(b *testing.B) {
	benchPlacement(b, func() decomp.Placement { return decomp.SingleGroup(benchComps) })
}

func BenchmarkPlacementPairs(b *testing.B) {
	benchPlacement(b, func() decomp.Placement {
		groups := make([]int, benchComps)
		for i := range groups {
			groups[i] = i / 2
		}
		return decomp.Placement{Name: "pairs", Groups: groups}
	})
}

func BenchmarkPlacementPerComp(b *testing.B) {
	benchPlacement(b, func() decomp.Placement { return decomp.PerComponent(benchComps) })
}
