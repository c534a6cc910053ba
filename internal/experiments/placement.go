package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Placement micro-study — the same partitioned datacenter workload executed
// under every placement the pipeline can emit: the paper's partition
// strategies lifted onto the finest build (s, ac, cr2, rs) plus the
// profiler-driven recommendation (auto). For each placement the study
// reports the model-predicted makespan of the placed run, the accounted
// makespan reconstructed from the placed run's real synchronization
// counters, and verifies the run stayed bit-identical to sequential — the
// tentpole's acceptance property exercised end to end.

// PlacementNames lists the placements the study accepts, in report order.
func PlacementNames() []string { return []string{"s", "ac", "cr2", "rs", "auto"} }

// PlacementPoint is one placement's measurements.
type PlacementPoint struct {
	Placement string
	Groups    int
	// PredSPerSimS is the model-predicted makespan of the placed run
	// (merge the model graph under the placement, then Makespan).
	PredSPerSimS float64
	// AcctSPerSimS is the accounted makespan: per runner, the group's busy
	// time plus channel overhead priced from the run's REAL sync/data
	// counters; the maximum over runners is the makespan.
	AcctSPerSimS float64
	// SyncMsgs counts sync messages actually sent across all runners.
	SyncMsgs uint64
	// WallMs is harness wall time for the placed run.
	WallMs float64
	// Identical reports bit-identity with the sequential reference
	// (delivered packets and total scheduler events).
	Identical bool
}

// PlacementResult holds the study.
type PlacementResult struct {
	Points []PlacementPoint
}

// Get returns the point for a placement name.
func (r *PlacementResult) Get(name string) PlacementPoint {
	for _, p := range r.Points {
		if p.Placement == name {
			return p
		}
	}
	panic("experiments: missing placement point")
}

// String renders the study.
func (r *PlacementResult) String() string {
	t := stats.NewTable("placement", "groups", "pred(s/sim-s)", "acct(s/sim-s)", "syncmsgs", "identical")
	for _, p := range r.Points {
		t.Row(p.Placement, p.Groups, fmt.Sprintf("%.2f", p.PredSPerSimS),
			fmt.Sprintf("%.2f", p.AcctSPerSimS), p.SyncMsgs, p.Identical)
	}
	var b strings.Builder
	b.WriteString("Placement study: one build, every placement; model-predicted vs accounted makespan\n")
	b.WriteString(t.String())
	b.WriteString("every placement must be bit-identical to sequential; co-location trades\n")
	b.WriteString("parallelism for deleted synchronization (syncmsgs -> 0 at one group)\n")
	return b.String()
}

// placementStudySim is one fresh build of the study system.
type placementStudySim struct {
	s        *orch.Simulation
	topo     *netsim.Topology
	meta     netsim.ThreeTierMeta
	rs       []int // finest (rs) switch->partition assignment the build uses
	received *uint64
}

// buildPlacementStudy constructs the study system at the finest (rs)
// partitioning — 1 core + 2 agg + 4 rack components — with cross-rack bulk
// traffic pairs. Placements then only ever coarsen this build.
func buildPlacementStudy(opts Options) *placementStudySim {
	spec := netsim.ThreeTierSpec{
		Aggs: 2, RacksPerAgg: 2, HostsPerRack: 3,
		CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	}
	topo, meta := netsim.ThreeTier(spec)
	rs := decomp.StrategyRS(meta, len(topo.Switches))
	b := topo.Build("net", opts.Seed, rs, nil)
	s := orch.New()
	instantiate.WirePartitions(s, topo, b, true)

	received := new(uint64)
	hosts := b.Hosts
	perm := sim.NewRand(opts.Seed ^ 0x91a).Perm(len(hosts))
	const pktSize = 1500
	gap := sim.FromSeconds(pktSize * 8 / (2.0 * 1e9))
	for i := 0; i+1 < len(perm); i += 2 {
		a, c := hosts[perm[i]], hosts[perm[i+1]]
		a.SetApp(&bulkApp{dst: c.IP(), gap: gap, size: pktSize})
		c.SetApp(&bulkApp{dst: a.IP(), gap: gap, size: pktSize})
		// Hosts in different groups hit this from different runner
		// goroutines during coupled runs.
		sink := func(proto.IP, uint16, []byte, int) { atomic.AddUint64(received, 1) }
		a.BindUDP(proto.PortBulk, sink)
		c.BindUDP(proto.PortBulk, sink)
	}
	return &placementStudySim{s: s, topo: topo, meta: meta, rs: rs, received: received}
}

// studyPlacement resolves a placement name against the study build: the
// strategy names coarsen the rs build via decomp.Coarsen, "rs" is
// per-component, and "auto" runs the recommender over the reference model
// graph.
func (ps *placementStudySim) studyPlacement(name string, refComps []decomp.Comp,
	refLinks []decomp.Link, mp decomp.Params) (decomp.Placement, error) {
	n := ps.s.NumComponents()
	switch name {
	case "s":
		return decomp.SingleGroup(n), nil
	case "rs":
		p := decomp.PerComponent(n)
		p.Name = "rs"
		return p, nil
	case "auto":
		return decomp.AutoPlace(refComps, refLinks, mp, decomp.RecommendOptions{}), nil
	case "ac", "cr2":
		st := decomp.Strategy{Name: "ac"}
		if name == "cr2" {
			st = decomp.Strategy{Name: "cr", N: 2}
		}
		coarse := st.Assign(ps.meta, len(ps.topo.Switches))
		groups, err := decomp.Coarsen(ps.rs, coarse)
		if err != nil {
			return decomp.Placement{}, err
		}
		return decomp.Placement{Name: name, Groups: groups}, nil
	}
	return decomp.Placement{}, fmt.Errorf("experiments: unknown placement %q (want one of %v)",
		name, PlacementNames())
}

// PlacementStudy runs the micro-study. With opts.Placement set, only that
// placement is measured.
func PlacementStudy(opts Options) (*PlacementResult, error) {
	dur := opts.Dur(5*sim.Millisecond, sim.Millisecond)
	mp := decomp.DefaultParams(dur)

	// Sequential reference: the ground truth every placement must match,
	// and the cost/traffic graph every prediction starts from.
	ref := buildPlacementStudy(opts)
	refSched := ref.s.RunSequential(dur)
	checkDrained(ref.s)
	refReceived, refEvents := *ref.received, refSched.Processed()
	if refReceived == 0 {
		return nil, fmt.Errorf("experiments: placement reference run carried no traffic")
	}
	refComps, refLinks := ref.s.ModelGraph(dur)

	names := PlacementNames()
	if opts.Placement != "" {
		names = []string{opts.Placement}
	}
	r := &PlacementResult{}
	for _, name := range names {
		p, err := ref.studyPlacement(name, refComps, refLinks, mp)
		if err != nil {
			return nil, err
		}
		norm, err := p.Normalized(len(refComps))
		if err != nil {
			return nil, err
		}

		run := buildPlacementStudy(opts)
		sw := newStopwatch()
		pl, err := run.s.Plan(p)
		if err == nil {
			_, err = pl.Execute(dur, opts.Exec)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %s: %w", name, err)
		}
		checkDrained(run.s)
		wall := sw.ms()
		var events, syncMsgs uint64
		for _, rn := range run.s.Group.Runners {
			events += rn.Scheduler().Processed()
			syncMsgs += rn.Counters().TxSync
		}

		// Model-predicted makespan of the placed run.
		mc, ml, err := decomp.MergePlacement(refComps, refLinks, norm)
		if err != nil {
			return nil, err
		}
		pred := decomp.Makespan(mc, ml, mp)

		// Accounted makespan: group busy time plus overhead priced from the
		// run's real counters. Runner order equals normalized group order.
		acct := 0.0
		for gi, rn := range run.s.Group.Runners {
			load := 0.0
			for ci, g := range norm.Groups {
				if g == gi {
					load += refComps[ci].BusyNs
				}
			}
			cnt := rn.Counters()
			load += float64(cnt.TxSync)*mp.SyncCostNs + float64(cnt.TxData)*mp.MsgCostNs
			if load > acct {
				acct = load
			}
		}

		r.Points = append(r.Points, PlacementPoint{
			Placement:    name,
			Groups:       norm.NumGroups(),
			PredSPerSimS: pred.ParNs / 1e9 / dur.Seconds(),
			AcctSPerSimS: acct / 1e9 / dur.Seconds(),
			SyncMsgs:     syncMsgs,
			WallMs:       wall,
			Identical:    *run.received == refReceived && events == refEvents,
		})
	}
	return r, nil
}

// applyModelPlacement folds a model graph under a named placement before
// prediction: "" and "percomp" leave it per-component, "s" fully
// co-locates, "auto" asks the recommender. fig7 and fig8 use it so their
// predictions honor -placement.
func applyModelPlacement(name string, comps []decomp.Comp, links []decomp.Link,
	mp decomp.Params) ([]decomp.Comp, []decomp.Link) {
	var p decomp.Placement
	switch name {
	case "", "percomp":
		return comps, links
	case "s":
		p = decomp.SingleGroup(len(comps))
	case "auto":
		p = decomp.AutoPlace(comps, links, mp, decomp.RecommendOptions{})
	default:
		panic(fmt.Sprintf("experiments: placement %q not usable here (want s, percomp, auto)", name))
	}
	mc, ml, err := decomp.MergePlacement(comps, links, p)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return mc, ml
}

// PlanFor builds the named experiment's simulation and renders its
// execution plan under the resolved placement — without running it (except
// "auto", which needs a sequential reference run to profile).
func PlanFor(name string, opts Options) (string, error) {
	placement := opts.Placement
	switch name {
	case "placement":
		if placement == "" {
			placement = "rs"
		}
		dur := opts.Dur(5*sim.Millisecond, sim.Millisecond)
		mp := decomp.DefaultParams(dur)
		ps := buildPlacementStudy(opts)
		var refComps []decomp.Comp
		var refLinks []decomp.Link
		if placement == "auto" {
			ref := buildPlacementStudy(opts)
			ref.s.RunSequential(dur)
			checkDrained(ref.s)
			refComps, refLinks = ref.s.ModelGraph(dur)
		}
		p, err := ps.studyPlacement(placement, refComps, refLinks, mp)
		if err != nil {
			return "", err
		}
		pl, err := ps.s.Plan(p)
		if err != nil {
			return "", err
		}
		return pl.String(), nil
	case "fig7":
		const cores = 8
		dur := opts.Dur(2*sim.Millisecond, 500*sim.Microsecond)
		build := func() *orch.Simulation {
			s := orch.New()
			memsim.BuildSplit(s, cores, memsim.DefaultParams())
			return s
		}
		s := build()
		p, err := planPlacement(placement, s, dur, build)
		if err != nil {
			return "", err
		}
		pl, err := s.Plan(p)
		if err != nil {
			return "", err
		}
		return pl.String(), nil
	case "fig8":
		const parts = 16
		dur := opts.Dur(20*sim.Millisecond, 5*sim.Millisecond)
		build := func() *orch.Simulation {
			topo, meta := netsim.FatTree(8, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
			assign := decomp.EvenFatTree(meta, len(topo.Switches), parts)
			b := topo.Build("net", opts.Seed, assign, nil)
			s := orch.New()
			instantiate.WirePartitions(s, topo, b, true)
			return s
		}
		s := build()
		p, err := planPlacement(placement, s, dur, build)
		if err != nil {
			return "", err
		}
		pl, err := s.Plan(p)
		if err != nil {
			return "", err
		}
		return pl.String(), nil
	}
	return "", fmt.Errorf("experiments: no plan for %q (want placement, fig7, fig8)", name)
}

// planPlacement resolves a generic placement name for PlanFor: per
// component by default, fully co-located for "s", recommender-driven for
// "auto" (profiling a fresh build sequentially first).
func planPlacement(name string, s *orch.Simulation, dur sim.Time,
	build func() *orch.Simulation) (decomp.Placement, error) {
	n := s.NumComponents()
	switch name {
	case "", "percomp":
		return decomp.PerComponent(n), nil
	case "s":
		return decomp.SingleGroup(n), nil
	case "auto":
		probe := build()
		probe.RunSequential(dur)
		checkDrained(probe)
		comps, links := probe.ModelGraph(dur)
		return decomp.AutoPlace(comps, links, decomp.DefaultParams(dur), decomp.RecommendOptions{}), nil
	}
	return decomp.Placement{}, fmt.Errorf("experiments: placement %q not usable here (want s, percomp, auto)", name)
}
