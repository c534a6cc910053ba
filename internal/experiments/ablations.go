package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Ablations for the design choices DESIGN.md calls out: the trunk adapter
// (multiplexing many logical links over one synchronized channel) and the
// synchronization quantum (the channel-latency lookahead).

// TrunkAblationResult compares the plan's trunk adapter against one
// synchronized channel per boundary link.
type TrunkAblationResult struct {
	Parts                 int
	TrunkChannels         int
	PerLinkChannels       int
	TrunkSPerSimS         float64
	PerLinkSPerSimS       float64
	SavingFrac            float64
	BoundaryMsgsPerSimSec float64
}

// String renders the comparison.
func (r *TrunkAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: trunk adapters (FatTree8 partitions)\n")
	t := stats.NewTable("wiring", "sync-channels", "modeled-run(s/sim-s)")
	t.Row("per-link channels", r.PerLinkChannels, fmt.Sprintf("%.2f", r.PerLinkSPerSimS))
	t.Row("trunk adapters", r.TrunkChannels, fmt.Sprintf("%.2f", r.TrunkSPerSimS))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "trunking removes %d sync streams: %.0f%% lower modeled runtime\n",
		r.PerLinkChannels-r.TrunkChannels, r.SavingFrac*100)
	return b.String()
}

// trunkAblationRun runs the partitioned FatTree8 the ablations share.
func trunkAblationRun(opts Options) (*modelRun, *netsim.Built) {
	s, b := fatTree(8, 8, opts.Seed)
	bulkTraffic(shuffledPairs(b.Hosts, opts.Seed^0xab), 8900, 2e9, false, nil)
	return newScenario(s, opts.Dur(20*sim.Millisecond, 5*sim.Millisecond)).run("", nil), b
}

// TrunkAblation measures the trunk adapter's saving from one run, priced
// two ways: the model graph's bundled links (what the plan executes) and the
// per-link counterfactual, one link per boundary carrying the frames both
// of its ports received.
func TrunkAblation(opts Options) *TrunkAblationResult {
	trunked, b := trunkAblationRun(opts)
	perLink := make([]decomp.Link, len(b.Boundaries))
	for i, bd := range b.Boundaries {
		perLink[i] = decomp.Link{A: bd.PartA, B: bd.PartB,
			Msgs: bd.PortA.RxFrames + bd.PortB.RxFrames, Quantum: fatTreeDelay}
	}
	r := &TrunkAblationResult{
		Parts:                 8,
		TrunkChannels:         len(trunked.links),
		PerLinkChannels:       len(perLink),
		TrunkSPerSimS:         trunked.perSimS(trunked.model.ParNs),
		PerLinkSPerSimS:       trunked.perSimS(decomp.Makespan(trunked.comps, perLink, trunked.mp).ParNs),
		BoundaryMsgsPerSimSec: float64(instantiate.BoundaryMsgs(b)) / trunked.dur.Seconds(),
	}
	r.SavingFrac = 1 - r.TrunkSPerSimS/r.PerLinkSPerSimS
	return r
}

// SyncQuantumPoint is one lookahead setting's modeled runtime.
type SyncQuantumPoint struct {
	// QuantumFactor scales the channels' natural (latency) quantum.
	QuantumFactor float64
	SPerSimS      float64
}

// SyncQuantumAblationResult sweeps the synchronization interval.
type SyncQuantumAblationResult struct {
	Points []SyncQuantumPoint
}

// String renders the sweep.
func (r *SyncQuantumAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: synchronization quantum (lookahead) sweep\n")
	t := stats.NewTable("quantum (x latency)", "modeled-run(s/sim-s)")
	for _, p := range r.Points {
		t.Row(fmt.Sprintf("%.2f", p.QuantumFactor), fmt.Sprintf("%.2f", p.SPerSimS))
	}
	b.WriteString(t.String())
	b.WriteString("smaller quanta mean more null messages per simulated second; the channel\n")
	b.WriteString("latency is the largest quantum that preserves accuracy (conservative sync)\n")
	return b.String()
}

// SyncQuantumAblation reuses one partitioned run and re-evaluates the
// performance model under scaled synchronization quanta.
func SyncQuantumAblation(opts Options) *SyncQuantumAblationResult {
	m, _ := trunkAblationRun(opts)
	r := &SyncQuantumAblationResult{}
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		scaled := slices.Clone(m.links)
		for i := range scaled {
			scaled[i].Quantum = sim.Time(float64(scaled[i].Quantum) * f)
		}
		r.Points = append(r.Points, SyncQuantumPoint{
			QuantumFactor: f,
			SPerSimS:      m.perSimS(decomp.Makespan(m.comps, scaled, m.mp).ParNs),
		})
	}
	return r
}
