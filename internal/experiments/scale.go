package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scale — the ROADMAP item-1 experiment: build a datacenter-scale multi-pod
// Clos with aggregate (prefix) routing and lazy hosts, and drive incast and
// all-to-all shuffle workloads over it, reporting sustained simulated
// packets per wall-clock second and resident routing state per host.
//
// At Scale=1 the fabric is the acceptance configuration: 100 pods × 32
// leaves × 8 spines with 32 hosts per leaf — 102,400 host slots on 4,032
// switches. Scale shrinks the pod count (floor 4). Only the 65 workload
// participants are materialized; the other ~10⁵ slots cost one TopoHost
// record each, which is the point.

// ScalePhase is one workload phase's outcome.
type ScalePhase struct {
	Name       string
	Flows      int
	Completed  int
	Bytes      int64
	FCTMean    sim.Time
	FCTP99     sim.Time
	SimPkts    uint64  // frames through switches, simulated
	WallMs     float64 // harness wall time
	PktsPerSec float64 // SimPkts / wall

	// Background flow-tier accounting (zero unless Options.Bg == "flow"):
	// active elephants, scheduler events the fluid tier consumed, the
	// packet-level event projection for the traffic it drained, and how
	// often the rate solver ran into its round cap (and how many flows it
	// then rated by fiat).
	BgFlows         int
	BgEvents        uint64
	BgProjPktEvents uint64
	BgRoundCapHits  int
	BgCappedFlows   int
}

// ScaleResult is the experiment outcome.
type ScaleResult struct {
	Hosts        int
	Switches     int
	Pods         int
	BuildMs      float64
	MaxEntries   int     // max per-switch routing entries (must be O(pods))
	BytesPerHost float64 // total routing state / hosts
	Phases       []ScalePhase
}

// String renders the result table.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: %d-host Clos (%d pods, %d switches), built in %.1f ms\n",
		r.Hosts, r.Pods, r.Switches, r.BuildMs)
	fmt.Fprintf(&b, "routing state: max %d entries/switch, %.1f B/host (per-IP would be %d entries/switch)\n",
		r.MaxEntries, r.BytesPerHost, r.Hosts)
	t := stats.NewTable("phase", "flows", "done", "fct-mean", "fct-p99", "simpkts", "pkts/s(wall)")
	for _, p := range r.Phases {
		t.Row(p.Name, p.Flows, p.Completed, p.FCTMean, p.FCTP99, p.SimPkts,
			stats.FmtRate(p.PktsPerSec))
	}
	b.WriteString(t.String())
	for _, p := range r.Phases {
		if p.BgEvents > 0 {
			fmt.Fprintf(&b, "%s background: %d elephants, %d flow events vs %d projected packet events (%.0fx fewer); solver round cap hit %d times, %d flows rated at the cap\n",
				p.Name, p.BgFlows, p.BgEvents, p.BgProjPktEvents,
				float64(p.BgProjPktEvents)/float64(p.BgEvents), p.BgRoundCapHits, p.BgCappedFlows)
		}
	}
	return b.String()
}

// scaleSpec derives the fabric from the option scale, or from an explicit
// -hosts target. Million-endpoint targets densify the leaves and switch to
// default-up routing so switch count and per-switch route state stay flat
// while the slot count crosses 10⁶.
func scaleSpec(opts Options) topogen.ClosSpec {
	spec := topogen.ClosSpec{
		LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
	if opts.Hosts > 0 {
		if opts.Hosts >= 200_000 {
			spec.HostsPerLeaf = 64
			spec.DefaultUp = true
		}
		perPod := spec.LeafPerPod * spec.HostsPerLeaf
		spec.Pods = max((opts.Hosts+perPod-1)/perPod, 4)
		return spec
	}
	spec.Pods = max(int(math.Round(100*opts.scale())), 4)
	return spec
}

// scaleAllSlots flattens every host slot of the fabric — the flow tier's
// endpoint set. No slot is materialized by this.
func scaleAllSlots(m *topogen.ClosMeta) []int {
	out := make([]int, 0, m.TotalHosts())
	for _, pod := range m.HostSlots {
		for _, leaf := range pod {
			out = append(out, leaf...)
		}
	}
	return out
}

// bgElephants pairs load·n/2 disjoint endpoints into long-lived background
// flows starting at t=0. Each endpoint appears in at most one flow, so a
// pair's max-min rate is its access-link share and the fabric carries
// roughly load·n/2 concurrent elephants for the whole horizon — a steady
// background occupancy knob that costs the fluid tier O(1) events after
// the initial admission.
func bgElephants(n int, load float64, seed uint64) *workload.Trace {
	k := int(load * float64(n) / 2)
	tr := &workload.Trace{}
	if k <= 0 {
		return tr
	}
	perm := sim.NewRand(seed).Perm(n)
	tr.Flows = make([]workload.TraceFlow, k)
	for i := 0; i < k; i++ {
		tr.Flows[i] = workload.TraceFlow{Src: perm[2*i], Dst: perm[2*i+1], Bytes: 1 << 30}
	}
	return tr
}

// scaleParticipants picks n host slots spread across pods and leaves.
func scaleParticipants(m *topogen.ClosMeta, n int) []int {
	slots := make([]int, 0, n)
	seen := map[int]bool{}
	for i := 0; len(slots) < n; i++ {
		p := i % m.Spec.Pods
		l := (i / m.Spec.Pods) % m.Spec.LeafPerPod
		h := (i / (m.Spec.Pods * m.Spec.LeafPerPod)) % m.Spec.HostsPerLeaf
		s := m.HostSlots[p][l][h]
		if !seen[s] {
			seen[s] = true
			slots = append(slots, s)
		}
	}
	return slots
}

// scalePhase runs one workload phase on a fresh fabric (with the 30%
// elephant background under -bg flow) and folds the outcome into a
// ScalePhase row.
func scalePhase(name string, opts Options, wl workload.Spec, participants int, dur sim.Time, r *ScaleResult) ScalePhase {
	load := 0.0
	if opts.Bg == "flow" {
		load = 0.3
	}
	ph := runClosPhase("scale", opts, participants, wl, load, dur)
	var pkts uint64
	maxEntries, totalBytes := 0, 0
	for _, swi := range ph.built.Switches {
		pkts += swi.RxPackets
		perIP, prefix := swi.RouteEntries()
		if perIP+prefix > maxEntries {
			maxEntries = perIP + prefix
		}
		totalBytes += swi.RouteStateBytes()
	}
	if r.Hosts == 0 {
		r.Hosts = ph.hosts
		r.Switches = len(ph.built.Switches)
		r.Pods = ph.spec.Pods
		r.BuildMs = ph.buildMs
		r.MaxEntries = maxEntries
		r.BytesPerHost = float64(totalBytes) / float64(ph.hosts)
	}
	out := ScalePhase{
		Name:       name,
		Flows:      ph.fg.FlowsStarted,
		Completed:  ph.fg.FlowsCompleted,
		Bytes:      ph.fg.BytesSent,
		FCTMean:    ph.fg.FCT.Mean(),
		FCTP99:     ph.fg.FCT.Percentile(99),
		SimPkts:    pkts,
		WallMs:     ph.run.wallMs,
		PktsPerSec: float64(pkts) / (ph.run.wallMs / 1000),
	}
	if bg := ph.bg; bg != nil {
		out.BgFlows = bg.ActiveFlows
		out.BgEvents = bg.Events
		out.BgProjPktEvents = bg.ProjPacketEvents
		out.BgRoundCapHits = bg.RoundCapHits
		out.BgCappedFlows = bg.CappedFlows
	}
	return out
}

// Scale runs the incast and shuffle phases.
func Scale(opts Options) *ScaleResult {
	dur := opts.Dur(5*sim.Millisecond, 1*sim.Millisecond)
	r := &ScaleResult{}
	r.Phases = append(r.Phases, scalePhase("incast", opts, workload.Spec{
		Pattern: workload.Incast{Victim: 0},
		Sizes:   workload.Fixed(20_000),
		Arrival: workload.Closed{Concurrency: 2},
		Seed:    opts.Seed,
	}, 65, dur, r))
	r.Phases = append(r.Phases, scalePhase("shuffle", opts, workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 1000, Alpha: 1.3, Max: 500_000},
		Arrival: workload.Open{FlowsPerSec: 20_000},
		Seed:    opts.Seed,
	}, 64, dur, r))
	return r
}
