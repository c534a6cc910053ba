package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/netsim"
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

// buildPlacementStudy constructs the study system at the finest (rs)
// partitioning — 1 core + 2 agg + 4 rack components — with cross-rack bulk
// traffic pairs, counting every delivered bulk packet. Placements only ever
// coarsen this build.
func buildPlacementStudy(opts Options) (*scenario, *atomic.Uint64) {
	spec := netsim.ThreeTierSpec{
		Aggs: 2, RacksPerAgg: 2, HostsPerRack: 3,
		CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	}
	topo, meta := netsim.ThreeTier(spec)
	rs := decomp.StrategyRS(meta, len(topo.Switches))
	inst := mustInstantiate(&config.System{Topo: topo}, config.Choices{Seed: opts.Seed, Partition: rs})
	// Hosts in different groups count from different runner goroutines
	// during placed runs.
	received := new(atomic.Uint64)
	bulkTraffic(shuffledPairs(inst.Built.Hosts, opts.Seed^0x91a), 1500, 2e9, true,
		func(proto.IP, uint16, []byte, int) { received.Add(1) })
	sc := newScenario(inst.Sim, opts.Dur(5*sim.Millisecond, sim.Millisecond))
	sc.finest = "rs"
	sc.coarsen = func(name string) (decomp.Placement, error) {
		st := decomp.Strategy{Name: "ac"}
		if name == "cr2" {
			st = decomp.Strategy{Name: "cr", N: 2}
		}
		groups, err := decomp.Coarsen(rs, st.Assign(meta, len(topo.Switches)))
		return decomp.Placement{Name: name, Groups: groups}, err
	}
	return sc, received
}

// PlacementStudy runs the micro-study. With opts.Placement set, only that
// placement is measured.
func PlacementStudy(opts Options) (*PlacementResult, error) {
	// Sequential reference: the ground truth every placement must match,
	// and the cost/traffic graph every prediction starts from.
	ref, refReceived := buildPlacementStudy(opts)
	m := ref.run("", nil)
	if refReceived.Load() == 0 {
		return nil, fmt.Errorf("experiments: placement reference run carried no traffic")
	}

	names := PlacementNames()
	if opts.Placement != "" {
		names = []string{opts.Placement}
	}
	r := &PlacementResult{}
	for _, name := range names {
		p, err := ref.placement(name, PlacementNames(), func() *modelRun { return m })
		if err != nil {
			return nil, err
		}
		norm, err := p.Normalized(len(m.comps))
		if err != nil {
			return nil, err
		}

		run, received := buildPlacementStudy(opts)
		sw := newStopwatch()
		pl, err := run.sim.Plan(p)
		if err == nil {
			err = pl.RunParallel(run.dur)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: placement %s: %w", name, err)
		}
		checkDrained(run.sim)
		wall := sw.ms()
		var events, syncMsgs uint64
		for _, rn := range run.sim.Group.Runners {
			events += rn.Scheduler().Processed()
			syncMsgs += rn.Counters().TxSync
		}

		// Model-predicted makespan of the placed run.
		mc, ml, err := decomp.MergePlacement(m.comps, m.links, norm)
		if err != nil {
			return nil, err
		}
		pred := decomp.Makespan(mc, ml, m.mp)

		// Accounted makespan: group busy time plus overhead priced from the
		// run's real counters. Runner order equals normalized group order.
		acct := 0.0
		for gi, rn := range run.sim.Group.Runners {
			load := 0.0
			for ci, g := range norm.Groups {
				if g == gi {
					load += m.comps[ci].BusyNs
				}
			}
			cnt := rn.Counters()
			load += float64(cnt.TxSync)*m.mp.SyncCostNs + float64(cnt.TxData)*m.mp.MsgCostNs
			if load > acct {
				acct = load
			}
		}

		r.Points = append(r.Points, PlacementPoint{
			Placement:    name,
			Groups:       norm.NumGroups(),
			PredSPerSimS: m.perSimS(pred.ParNs),
			AcctSPerSimS: m.perSimS(acct),
			SyncMsgs:     syncMsgs,
			WallMs:       wall,
			Identical:    received.Load() == refReceived.Load() && events == m.events,
		})
	}
	return r, nil
}

// PlanFor builds the named experiment's system and renders its execution
// plan under opts.Placement, without running it — except "auto", which
// profiles a second build sequentially first.
func PlanFor(name string, opts Options) (string, error) {
	e, _ := Lookup(name)
	if e.plan == nil {
		return "", fmt.Errorf("experiments: %q has no plan", name)
	}
	sc := e.plan(opts)
	p, err := sc.placement(opts.Placement, e.Placements, func() *modelRun { return e.plan(opts).run("", nil) })
	if err != nil {
		return "", err
	}
	pl, err := sc.sim.Plan(p)
	if err != nil {
		return "", err
	}
	return pl.String(), nil
}
