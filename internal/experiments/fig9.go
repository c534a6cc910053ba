package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/kv"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/netsim"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig. 9 — simulation speed of different network-partition strategies on
// the 1,200-host datacenter topology with background traffic, with a pair
// of detailed hosts (qemu or gem5) attached through two NICs. The paper's
// point: predicted performance is unintuitive — strategies with identical
// core counts differ, and beyond a point more cores make the simulation
// slower. Fig. 10 then uses the profiler to explain why.

// Fig9Point is one (strategy, host kind) measurement.
type Fig9Point struct {
	Strategy string
	HostKind string // "qemu" or "gem5"
	// Parts is the number of network processes.
	Parts int
	// Cores includes the 4 host/NIC components, as the paper counts.
	Cores int
	// SimSpeed is simulated seconds per modeled wall second.
	SimSpeed float64
}

// Fig9Result holds the sweep plus the raw model inputs for Fig. 10.
type Fig9Result struct {
	Points []Fig9Point
}

// String renders the figure.
func (r *Fig9Result) String() string {
	t := stats.NewTable("strategy", "hosts", "net-parts", "cores", "sim-speed(sim-s/s)")
	for _, p := range r.Points {
		t.Row(p.Strategy, p.HostKind, p.Parts, p.Cores, fmt.Sprintf("%.2e", p.SimSpeed))
	}
	var b strings.Builder
	b.WriteString("Fig 9: simulation speed per partition strategy (1200-host topology + detailed host pair)\n")
	b.WriteString(t.String())
	b.WriteString("paper's observations: strategies differ widely; same cores can differ; past a\n")
	b.WriteString("point more cores slow the simulation; gem5 hosts shift the bottleneck to hosts\n")
	return b.String()
}

// Fig9Strategies is the strategy set from the paper's table.
var Fig9Strategies = []decomp.Strategy{
	{Name: "s"},
	{Name: "ac"},
	{Name: "cr", N: 6},
	{Name: "cr", N: 3},
	{Name: "cr", N: 1},
	{Name: "rs"},
}

// fig9System declares the datacenter with a detailed pair in different
// aggregation blocks: a KV server (hostB) and a closed-loop client (hostA).
func fig9System(opts Options) (*config.System, netsim.ThreeTierMeta) {
	topo, meta := netsim.ThreeTier(clockSyncSpec(opts))
	sys := &config.System{Topo: topo}
	slotA, slotB := meta.HostsByRack[0][0][0], meta.HostsByRack[1][0][0]
	topo.Hosts[slotA].Name, topo.Hosts[slotB].Name = "hostA", "hostB"
	cp := kv.DefaultClientParams(0, []proto.IP{topo.Hosts[slotB].IP})
	cp.Outstanding = 4
	cp.WarmUp = 0
	a, b := sys.Host(slotA).SetSeed(opts.Seed+1), sys.Host(slotB).SetSeed(opts.Seed+2)
	a.Apps, b.Apps = []config.App{kv.NewClient(cp).Run}, []config.App{kv.NewServer(kv.DefaultServerParams()).Run}
	return sys, meta
}

// fig9Run instantiates the datacenter partitioned by strategy with the
// detailed pair at hostKind's fidelity, adds the background traffic, runs
// it, and returns the model inputs and the number of network processes.
func fig9Run(strategy decomp.Strategy, hostKind core.Fidelity, opts Options) (*modelRun, int) {
	dur := opts.Dur(500*sim.Millisecond, 100*sim.Millisecond)
	sys, meta := fig9System(opts)
	spec := meta.Spec
	inst := mustInstantiate(sys, config.Choices{
		Seed:             opts.Seed,
		Partition:        strategy.Assign(meta, len(sys.Topo.Switches)),
		FidelityOverride: atFidelity(hostKind, "hostA", "hostB"),
	})

	// Background bulk pairs. At full scale they load the core layer to
	// ~90% with 1500-byte packets, the regime where ns-3 dominates the
	// simulation (§3.1's 3-5x slowdown). Scaled-down runs sample the load
	// (carry scale-fraction of the traffic) and the network components'
	// modeled cost is scaled back up below — standard flow sampling.
	// Pair endpoints follow datacenter locality: ~80% of pairs stay within
	// a rack, ~15% within an aggregation block, the rest cross the core.
	var bg []*netsim.Host
	hostAgg := make(map[*netsim.Host]int)
	hostRack := make(map[*netsim.Host]int)
	rackID := 0
	for a := range meta.HostsByRack {
		for r := range meta.HostsByRack[a] {
			for _, slot := range meta.HostsByRack[a][r] {
				if h := inst.Built.Hosts[slot]; h != nil {
					bg = append(bg, h)
					hostAgg[h] = a
					hostRack[h] = rackID
				}
			}
			rackID++
		}
	}
	rng := sim.NewRand(opts.Seed ^ 0x99)
	order := rng.Perm(len(bg))
	paired := make(map[*netsim.Host]bool)
	var pairList [][2]*netsim.Host
	for _, i := range order {
		a := bg[i]
		if paired[a] {
			continue
		}
		var want func(c *netsim.Host) bool
		switch r := rng.Float64(); {
		case r < 0.80:
			want = func(c *netsim.Host) bool { return hostRack[c] == hostRack[a] }
		case r < 0.95:
			want = func(c *netsim.Host) bool {
				return hostAgg[c] == hostAgg[a] && hostRack[c] != hostRack[a]
			}
		default:
			want = func(c *netsim.Host) bool { return hostAgg[c] != hostAgg[a] }
		}
		var partner *netsim.Host
		for _, j := range order {
			c := bg[j]
			if c == a || paired[c] || !want(c) {
				continue
			}
			partner = c
			break
		}
		if partner == nil {
			continue
		}
		paired[a], paired[partner] = true, true
		pairList = append(pairList, [2]*netsim.Host{a, partner})
	}
	pairRate := min(0.9*float64(spec.CoreRate)*float64(spec.Aggs)*opts.scale()/float64(len(pairList)), 0.9*float64(spec.HostRate))
	bulkTraffic(pairList, 1500, pairRate, false, nil)

	// Undo the load sampling: each simulated background packet stands for
	// 1/scale packets of the full-scale workload.
	m := newScenario(inst.Sim, dur).run("", func(comps []decomp.Comp, links []decomp.Link) {
		if f := 1 / opts.scale(); f > 1 {
			for i := range comps {
				if strings.HasPrefix(comps[i].Name, "net") {
					comps[i].BusyNs *= f
				}
			}
			for i := range links {
				links[i].Msgs = uint64(float64(links[i].Msgs) * f)
			}
		}
	})
	return m, strategy.Parts(meta)
}

// machineCores is the evaluation machine's core count (2x Xeon 6336Y).
const machineCores = 48

// Fig9 sweeps strategies and host kinds.
func Fig9(opts Options) *Fig9Result {
	r := &Fig9Result{}
	for _, hostKind := range []core.Fidelity{core.Coarse, core.Detailed} {
		for _, st := range Fig9Strategies {
			m, parts := fig9Run(st, hostKind, opts)
			mp := m.mp
			mp.Cores = machineCores
			model := decomp.Makespan(m.comps, m.links, mp)
			r.Points = append(r.Points, Fig9Point{
				Strategy: st.String(), HostKind: hostKind.String(),
				Parts: parts, Cores: parts + 4,
				SimSpeed: model.SimSpeed,
			})
		}
	}
	return r
}

// Fig10Result carries the WTPGs for the ac and cr3 strategies.
type Fig10Result struct {
	ACDot   string
	CR3Dot  string
	ACText  string
	CR3Text string
	// ACBottlenecks and CR3Bottlenecks list the red nodes.
	ACBottlenecks, CR3Bottlenecks []string
}

// String renders both profiles.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 10: wait-time-profile graphs (qemu hosts)\n")
	b.WriteString("--- ac partition strategy ---\n")
	b.WriteString(r.ACText)
	fmt.Fprintf(&b, "bottlenecks: %v (paper: the rack-carrying ns-3 instances)\n", r.ACBottlenecks)
	b.WriteString("--- cr3 partition strategy ---\n")
	b.WriteString(r.CR3Text)
	fmt.Fprintf(&b, "bottlenecks: %v (paper: shifting toward the qemu hosts)\n", r.CR3Bottlenecks)
	return b.String()
}

// Fig10 profiles the ac and cr3 strategies with qemu hosts.
func Fig10(opts Options) *Fig10Result {
	r := &Fig10Result{}
	for _, st := range []decomp.Strategy{{Name: "ac"}, {Name: "cr", N: 3}} {
		m, _ := fig9Run(st, core.Coarse, opts)
		a := decomp.ModeledAnalysis(m.comps, m.links, m.mp)
		g := profiler.BuildWTPG(a)
		switch st.String() {
		case "ac":
			r.ACDot, r.ACText, r.ACBottlenecks = g.DOT(), g.Render(), a.Bottlenecks(0.10)
		default:
			r.CR3Dot, r.CR3Text, r.CR3Bottlenecks = g.DOT(), g.Render(), a.Bottlenecks(0.10)
		}
	}
	return r
}
