package experiments

import (
	"fmt"
	"strings"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig. 8 — SplitSim parallelization versus the native (MPI-style,
// global-barrier) parallelization of ns-3 and OMNeT++ on the DONS FatTree8
// configuration (k=8 fat tree, 128 servers), evenly partitioned into 1, 2,
// 16 and 32 components. Both schemes run the same partitions; they differ
// only in synchronization: SplitSim syncs each channel with its neighbor at
// the channel's latency lookahead, the native scheme synchronizes all
// partitions in lockstep rounds whose cost grows with the partition count.
//
// The OMNeT++ flavor differs from the ns-3 flavor by its relative
// per-event simulation cost (calibrated constant; see EXPERIMENTS.md).

// Fig8Point is one (flavor, partitions) measurement.
type Fig8Point struct {
	Flavor       string // "ns3" or "omnet"
	Parts        int
	NativeS      float64 // native-parallel modeled runtime, s per sim-s
	SplitSimS    float64 // SplitSim modeled runtime, s per sim-s
	Reduction    float64 // 1 - SplitSim/Native
	BoundaryMsgs uint64
}

// Fig8Result holds all points.
type Fig8Result struct {
	Points []Fig8Point
}

// Get returns the point for (flavor, parts).
func (r *Fig8Result) Get(flavor string, parts int) Fig8Point {
	for _, p := range r.Points {
		if p.Flavor == flavor && p.Parts == parts {
			return p
		}
	}
	panic("experiments: missing fig8 point")
}

// String renders the figure.
func (r *Fig8Result) String() string {
	t := stats.NewTable("flavor", "parts", "native(s/sim-s)", "splitsim(s/sim-s)", "reduction")
	best := 0.0
	for _, p := range r.Points {
		t.Row(p.Flavor, p.Parts, fmt.Sprintf("%.1f", p.NativeS),
			fmt.Sprintf("%.1f", p.SplitSimS), fmt.Sprintf("%.0f%%", p.Reduction*100))
		if p.Reduction > best {
			best = p.Reduction
		}
	}
	var b strings.Builder
	b.WriteString("Fig 8: SplitSim vs native (MPI/barrier) parallelization, FatTree8, 128 servers\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "max simulation-time reduction: %.0f%% (paper: up to 57%%)\n", best*100)
	return b.String()
}

// omnetCostFactor scales netsim event costs to OMNeT++'s relative speed.
const omnetCostFactor = 1.35

// fig8Build builds the DONS FatTree8 evenly cut into parts partitions,
// every server streaming CBR traffic to a fixed partner in another pod (2
// Gbps per host keeps event counts tractable).
func fig8Build(parts int, opts Options) (*scenario, *netsim.Built) {
	s, b := fatTree(8, parts, opts.Seed)
	bulkTraffic(shuffledPairs(b.Hosts, opts.Seed^0xf8), 8900, 2e9, true, nil)
	return newScenario(s, opts.Dur(20*sim.Millisecond, 5*sim.Millisecond)), b
}

// fig8Run runs one partitioning and evaluates both synchronization schemes
// on the resulting cost graph.
func fig8Run(flavor string, parts int, opts Options) Fig8Point {
	sc, b := fig8Build(parts, opts)
	m := sc.run(opts.Placement, func(comps []decomp.Comp, _ []decomp.Link) {
		if flavor == "omnet" {
			for i := range comps {
				comps[i].BusyNs *= omnetCostFactor
			}
		}
	})
	native := decomp.NativeBarrier(m.comps, m.links, m.mp)
	pt := Fig8Point{
		Flavor: flavor, Parts: parts,
		NativeS:      m.perSimS(native.ParNs),
		SplitSimS:    m.perSimS(m.model.ParNs),
		BoundaryMsgs: instantiate.BoundaryMsgs(b),
	}
	pt.Reduction = 1 - pt.SplitSimS/pt.NativeS
	return pt
}

// Fig8 sweeps flavors and partition counts.
func Fig8(opts Options) *Fig8Result {
	r := &Fig8Result{}
	for _, flavor := range []string{"ns3", "omnet"} {
		for _, parts := range []int{1, 2, 16, 32} {
			r.Points = append(r.Points, fig8Run(flavor, parts, opts))
		}
	}
	return r
}
