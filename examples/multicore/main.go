// Multi-core decomposition: simulate the same multi-core machine twice —
// monolithically (sequential gem5) and split into one component per core
// plus a memory controller (SplitSim adapters over the port interface).
// Verifies the simulated behavior and the modeled sequential cost are
// identical and prints the performance model's predicted speedup, Fig. 7's
// experiment in miniature.
package main

import (
	"fmt"
	"math"

	splitsim "repro"
	"repro/internal/decomp"
	"repro/internal/memsim"
)

func main() {
	const cores = 8
	const dur = 2 * splitsim.Millisecond
	p := memsim.DefaultParams()

	// Monolithic (sequential gem5).
	mono := memsim.NewMonolithic("gem5", cores, p)
	sm := splitsim.NewSimulation()
	sm.Add(mono)
	sm.RunSequential(dur)

	// Split (one component per core + memory controller).
	ss := splitsim.NewSimulation()
	split, mem := memsim.BuildSplit(ss, cores, p)
	ss.RunSequential(dur)

	for i, c := range split {
		if c.Blocks != mono.Cores()[i].Blocks {
			panic("split and monolithic instantiations diverged")
		}
	}
	if mem.Txns != mono.Mem().Txns {
		panic("split and monolithic memory controllers diverged")
	}
	fmt.Printf("identical simulated behavior: %d blocks/core, %d memory txns\n",
		split[0].Blocks, mem.Txns)

	comps, links := ss.ModelGraph(dur)
	model := decomp.Makespan(comps, links, decomp.DefaultParams(dur))
	// The monolithic build charges every piece to one account, so its own
	// model must cost what the split pieces sum to.
	mc, ml := sm.ModelGraph(dur)
	seq := decomp.Makespan(mc, ml, decomp.DefaultParams(dur)).SeqNs
	if math.Abs(seq-model.SeqNs) > 1e-9*seq {
		panic("monolithic and split cost models disagree")
	}
	fmt.Printf("sequential gem5: %.0f s per simulated second\n",
		seq/1e9/dur.Seconds())
	fmt.Printf("SplitSim split:  %.0f s per simulated second (%.1fx speedup)\n",
		model.ParNs/1e9/dur.Seconds(), model.Speedup)
	for _, c := range split {
		fmt.Printf("  %s: stall %.0f%% of time (shared memory contention)\n",
			c.Name(), 100*float64(c.StallTime)/float64(dur))
		break
	}
}
