package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/flowsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The scenario layer every figure shares — this repository's version of the
// paper's reusable topology module (§4.6). A figure builds a system, runs it
// through scenario.run, and reads its metrics off the result. Placement
// names resolve in one place (scenario.placement), and the constructions
// several figures need — bulk traffic pairs, the partitioned fat tree, the
// lazy Clos phase, the KV case study — are written once, here.

// modelPlacements are the -placement values of the figures that fold their
// model prediction onto a placement (fig7, fig8).
var modelPlacements = []string{"s", "percomp", "auto"}

// scenario is one built system, ready to run.
type scenario struct {
	sim *orch.Simulation
	dur sim.Time
	// finest names the placement that gives every component its own group,
	// and the one "" resolves to: "percomp", or "rs" for the placement
	// study, whose build is cut at the rs partitioning.
	finest string
	// coarsen lifts a partition-strategy name onto the build (the placement
	// study's ac and cr2); nil where no strategy name is accepted.
	coarsen func(name string) (decomp.Placement, error)
}

func newScenario(s *orch.Simulation, dur sim.Time) *scenario {
	return &scenario{sim: s, dur: dur, finest: "percomp"}
}

// placement resolves name, which must be one of accepted, over the build's
// components: "s" co-locates them all, sc.finest (and "") gives each its own
// group, "auto" asks the recommender about the model graph profile returns
// (called only then), and any other name is a strategy sc.coarsen lifts onto
// the build.
func (sc *scenario) placement(name string, accepted []string, profile func() *modelRun) (decomp.Placement, error) {
	if name == "" {
		name = sc.finest
	}
	if !slices.Contains(accepted, name) {
		return decomp.Placement{}, fmt.Errorf("experiments: placement %q not usable here (want %s)",
			name, strings.Join(accepted, ", "))
	}
	n := sc.sim.NumComponents()
	switch name {
	case "s":
		return decomp.SingleGroup(n), nil
	case sc.finest:
		p := decomp.PerComponent(n)
		p.Name = name
		return p, nil
	case "auto":
		m := profile()
		return decomp.AutoPlace(m.comps, m.links, m.mp), nil
	}
	return sc.coarsen(name)
}

// modelRun is a finished sequential run read through the performance model.
type modelRun struct {
	dur    sim.Time
	events uint64 // scheduler events the run processed
	wallMs float64
	comps  []decomp.Comp
	links  []decomp.Link
	mp     decomp.Params
	model  decomp.Result // Makespan of comps and links under mp
}

// perSimS converts modeled nanoseconds into seconds per simulated second.
func (m *modelRun) perSimS(ns float64) float64 { return ns / 1e9 / m.dur.Seconds() }

// run is the sequence every figure runs: RunSequential to the horizon, the
// frame-pool audit, the model graph — rescaled by adjust (nil: as measured)
// and folded onto placement, one of modelPlacements ("": left per
// component) — and its Makespan under the calibrated parameters.
func (sc *scenario) run(placement string, adjust func([]decomp.Comp, []decomp.Link)) *modelRun {
	sw := newStopwatch()
	sched := sc.sim.RunSequential(sc.dur)
	checkDrained(sc.sim)
	m := &modelRun{dur: sc.dur, events: sched.Processed(), wallMs: sw.ms(), mp: decomp.DefaultParams(sc.dur)}
	m.comps, m.links = sc.sim.ModelGraph(sc.dur)
	if adjust != nil {
		adjust(m.comps, m.links)
	}
	if placement != "" {
		p, err := sc.placement(placement, modelPlacements, func() *modelRun { return m })
		if err == nil {
			m.comps, m.links, err = decomp.MergePlacement(m.comps, m.links, p)
		}
		if err != nil {
			// The CLI checks -placement against the experiment table first.
			panic(err.Error())
		}
	}
	m.model = decomp.Makespan(m.comps, m.links, m.mp)
	return m
}

// bulkApp is the background workload: constant-rate virtual-payload UDP
// toward a fixed partner (the randomized bulk-transfer pairs of §4.3).
type bulkApp struct {
	dst  proto.IP
	gap  sim.Time
	size int
}

func (b *bulkApp) Start(h *netsim.Host) {
	// Desynchronize via a random phase.
	h.After(sim.Time(h.Rand().Int63n(int64(b.gap))), func() { b.tick(h) })
}

func (b *bulkApp) tick(h *netsim.Host) {
	h.SendUDP(b.dst, proto.PortBulk, proto.PortBulk, nil, b.size)
	h.After(b.gap, func() { b.tick(h) })
}

// shuffledPairs pairs hosts off a seeded permutation: perm[2i] with
// perm[2i+1].
func shuffledPairs(hosts []*netsim.Host, seed uint64) [][2]*netsim.Host {
	perm := sim.NewRand(seed).Perm(len(hosts))
	pairs := make([][2]*netsim.Host, len(hosts)/2)
	for i := range pairs {
		pairs[i] = [2]*netsim.Host{hosts[perm[2*i]], hosts[perm[2*i+1]]}
	}
	return pairs
}

// bulkTraffic streams size-byte UDP packets at rate bits/s from the first
// host of every pair to the second, and back too when both is set. sink
// receives the bulk packets (nil discards them).
func bulkTraffic(pairs [][2]*netsim.Host, size int, rate float64, both bool, sink netsim.UDPHandler) {
	if sink == nil {
		sink = func(proto.IP, uint16, []byte, int) {}
	}
	gap := sim.FromSeconds(float64(size*8) / rate)
	for _, p := range pairs {
		p[0].SetApp(&bulkApp{dst: p[1].IP(), gap: gap, size: size})
		p[1].BindUDP(proto.PortBulk, sink)
		if both {
			p[1].SetApp(&bulkApp{dst: p[0].IP(), gap: gap, size: size})
			p[0].BindUDP(proto.PortBulk, sink)
		}
	}
}

// fatTreeDelay is every fatTree link's delay.
const fatTreeDelay = sim.Microsecond

// fatTree instantiates a k-ary fat tree (10G hosts, 40G fabric,
// fatTreeDelay links) cut evenly into parts partitions.
func fatTree(k, parts int, seed uint64) (*orch.Simulation, *netsim.Built) {
	topo, meta := netsim.FatTree(k, 10*sim.Gbps, 40*sim.Gbps, fatTreeDelay)
	inst := mustInstantiate(&config.System{Topo: topo},
		config.Choices{Seed: seed, Partition: decomp.EvenFatTree(meta, len(topo.Switches), parts)})
	return inst.Sim, inst.Built
}

// closPhase is one workload phase on a fresh lazy Clos (scaleSpec's fabric,
// built under name): participants materialized slots run fg at packet
// level, over a flow-tier elephant background at bgLoad endpoint occupancy
// (0: none) that never materializes a host.
type closPhase struct {
	spec    topogen.ClosSpec
	hosts   int // host slots
	built   *netsim.Built
	buildMs float64
	run     *modelRun
	fg      workload.Report
	bg      *flowsim.Report // nil without background
}

func runClosPhase(name string, opts Options, participants int, fg workload.Spec, bgLoad float64, dur sim.Time) *closPhase {
	sw := newStopwatch()
	ph := &closPhase{spec: scaleSpec(opts)}
	topo, m := topogen.Clos(ph.spec)
	ph.built = topo.Build(name, opts.Seed, nil, nil)
	ph.hosts, ph.buildMs = m.TotalHosts(), sw.ms()
	slots := scaleParticipants(m, participants)
	hosts := make([]*netsim.Host, len(slots))
	for i, slot := range slots {
		hosts[i] = ph.built.MaterializeSlot(slot)
	}
	eng := workload.Install(hosts, fg)
	var bg *flowsim.Engine
	if bgLoad > 0 {
		bg = flowsim.Install(ph.built, scaleAllSlots(m), flowsim.Spec{
			Trace: bgElephants(m.TotalHosts(), bgLoad, opts.Seed^0xb105),
			Seed:  opts.Seed ^ 0xb105,
		})
	}
	s := orch.New()
	instantiate.WirePartitions(s, topo, ph.built, true)
	ph.run = newScenario(s, dur).run("", nil)
	ph.fg = eng.Collect()
	if bg != nil {
		r := bg.Collect()
		ph.bg = &r
	}
	return ph
}

// mustInstantiate instantiates a figure's system under one cell's choices.
// A figure's system and choices are fixed, so an error is a bug in them.
func mustInstantiate(sys *config.System, c config.Choices) *config.Instance {
	inst, err := sys.Instantiate(c)
	if err != nil {
		panic(err.Error())
	}
	return inst
}

// atFidelity maps each named host to f, a cell's FidelityOverride.
func atFidelity(f core.Fidelity, names ...string) map[string]core.Fidelity {
	m := make(map[string]core.Fidelity, len(names))
	for _, n := range names {
		m[n] = f
	}
	return m
}
