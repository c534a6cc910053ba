package experiments

import (
	"fmt"
	"strings"

	"repro/internal/netsim/workload"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Flowsim — the mixed-fidelity figure: a packet-level foreground incast in
// one pod of a lazy datacenter Clos, with the flow-level background tier
// occupying a sweep of endpoint fractions fabric-wide. The figure plots
// foreground FCT percentiles against background load, and reports the
// fluid tier's scheduler-event count next to the packet-level projection
// for the traffic it drained — the "background for the price of an
// arithmetic update" claim.
//
// Background load is an endpoint-occupancy knob: at load ρ, ρ·n/2 disjoint
// endpoint pairs carry long-lived elephants for the whole horizon (see
// bgElephants). Foreground hosts are the only materialized slots plus the
// incast participants; background never materializes anything.

// FlowsimPoint is one background-load level's outcome.
type FlowsimPoint struct {
	Load        float64
	BgFlows     int
	FgCompleted int
	FgFCTP50    sim.Time
	FgFCTP99    sim.Time
	BgEvents    uint64
	BgProjPkt   uint64
	// BgCapHits and BgCapped: rate recomputations that ran into the
	// solver's round cap, and the flows those rated by fiat.
	BgCapHits int
	BgCapped  int
	WallMs    float64
}

// FlowsimResult is the experiment outcome.
type FlowsimResult struct {
	Hosts  int
	Points []FlowsimPoint
}

// String renders the figure series.
func (r *FlowsimResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flowsim: mixed-fidelity Clos, %d host slots, packet-level incast foreground\n", r.Hosts)
	t := stats.NewTable("bg-load", "bg-flows", "fg-done", "fg-fct-p50", "fg-fct-p99", "bg-events", "proj-pkt-events", "ratio", "cap-hits", "capped-flows")
	for _, p := range r.Points {
		ratio := "-"
		if p.BgEvents > 0 {
			ratio = fmt.Sprintf("%.0fx", float64(p.BgProjPkt)/float64(p.BgEvents))
		}
		t.Row(fmt.Sprintf("%.0f%%", p.Load*100), p.BgFlows, p.FgCompleted,
			p.FgFCTP50, p.FgFCTP99, p.BgEvents, p.BgProjPkt, ratio, p.BgCapHits, p.BgCapped)
	}
	b.WriteString(t.String())
	return b.String()
}

// Flowsim sweeps background load over {0, 30, 60, 90}% endpoint occupancy.
func Flowsim(opts Options) (*FlowsimResult, error) {
	dur := opts.Dur(5*sim.Millisecond, 1*sim.Millisecond)
	r := &FlowsimResult{}
	for _, load := range []float64{0, 0.3, 0.6, 0.9} {
		sw := newStopwatch()
		// Open-loop so the offered foreground load is identical at every
		// background level: degradation shows up in the FCT percentiles
		// rather than in a closed loop's completion count.
		ph := runClosPhase("flowsim", opts, 33, workload.Spec{
			Pattern: workload.Incast{Victim: 0},
			Sizes:   workload.Fixed(20_000),
			Arrival: workload.Open{FlowsPerSec: 1_000},
			Seed:    opts.Seed,
		}, load, dur)
		r.Hosts = ph.hosts
		p := FlowsimPoint{
			Load:        load,
			FgCompleted: ph.fg.FlowsCompleted,
			FgFCTP50:    ph.fg.FCT.Percentile(50),
			FgFCTP99:    ph.fg.FCT.Percentile(99),
			WallMs:      sw.ms(),
		}
		if bg := ph.bg; bg != nil {
			p.BgFlows = bg.ActiveFlows
			p.BgEvents = bg.Events
			p.BgProjPkt = bg.ProjPacketEvents
			p.BgCapHits = bg.RoundCapHits
			p.BgCapped = bg.CappedFlows
		}
		r.Points = append(r.Points, p)
	}
	return r, nil
}
