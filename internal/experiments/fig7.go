package experiments

import (
	"fmt"
	"strings"

	"repro/internal/memsim"
	"repro/internal/orch"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig. 7 — parallelizing sequential multi-core gem5 simulations by
// splitting each core into its own process connected through SplitSim
// adapters over the port-based memory interface. Sequential and split
// instantiations simulate identical behavior (memsim tests verify this);
// the figure compares their simulation runtimes across core counts.

// Fig7Point is one core count's results.
type Fig7Point struct {
	Cores int
	// SeqSPerSimS and SplitSPerSimS are modeled runtimes in seconds per
	// simulated second (sequential gem5 vs SplitSim-parallelized).
	SeqSPerSimS, SplitSPerSimS float64
	// Speedup is sequential/split.
	Speedup float64
	// Blocks is total compute blocks simulated (progress sanity metric).
	Blocks uint64
	// WallMs is the harness's measured wall time for the split run.
	WallMs float64
}

// Fig7Result holds the sweep.
type Fig7Result struct {
	Points []Fig7Point
}

// Get returns the point for a core count.
func (r *Fig7Result) Get(cores int) Fig7Point {
	for _, p := range r.Points {
		if p.Cores == cores {
			return p
		}
	}
	panic("experiments: missing fig7 point")
}

// String renders the figure.
func (r *Fig7Result) String() string {
	t := stats.NewTable("cores", "seq(s/sim-s)", "split(s/sim-s)", "speedup")
	for _, p := range r.Points {
		t.Row(p.Cores, fmt.Sprintf("%.0f", p.SeqSPerSimS),
			fmt.Sprintf("%.0f", p.SplitSPerSimS), fmt.Sprintf("%.1fx", p.Speedup))
	}
	var b strings.Builder
	b.WriteString("Fig 7: SplitSim-parallelized multi-core gem5 vs sequential gem5\n")
	b.WriteString(t.String())
	if has8, has44 := contains(r.Points, 8), contains(r.Points, 44); has8 && has44 {
		fmt.Fprintf(&b, "speedup at 8 cores: %.1fx (paper: ~5x)\n", r.Get(8).Speedup)
		fmt.Fprintf(&b, "split time 44/8 cores: %.2fx (paper: ~2x)\n",
			r.Get(44).SplitSPerSimS/r.Get(8).SplitSPerSimS)
	}
	return b.String()
}

func contains(ps []Fig7Point, cores int) bool {
	for _, p := range ps {
		if p.Cores == cores {
			return true
		}
	}
	return false
}

// fig7Build builds n cores split off the memory system, one component
// each.
func fig7Build(n int, opts Options) (*scenario, []*memsim.Core) {
	s := orch.New()
	cores, _ := memsim.BuildSplit(s, n, memsim.DefaultParams())
	return newScenario(s, opts.Dur(2*sim.Millisecond, 500*sim.Microsecond)), cores
}

// fig7Run simulates n cores in the split instantiation and derives both
// runtimes from the cost accounts: the sequential time is the total work in
// one process (no channels), the split time is the makespan of the
// per-component work plus channel synchronization overhead.
func fig7Run(n int, opts Options) Fig7Point {
	sc, cores := fig7Build(n, opts)
	m := sc.run(opts.Placement, nil)
	pt := Fig7Point{Cores: n, WallMs: m.wallMs,
		SeqSPerSimS: m.perSimS(m.model.SeqNs), SplitSPerSimS: m.perSimS(m.model.ParNs), Speedup: m.model.Speedup}
	for _, c := range cores {
		pt.Blocks += c.Blocks
	}
	return pt
}

// Fig7 sweeps core counts.
func Fig7(opts Options) *Fig7Result {
	r := &Fig7Result{}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 44} {
		r.Points = append(r.Points, fig7Run(n, opts))
	}
	return r
}
