package orch

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ChannelKind classifies a planned channel.
type ChannelKind int

const (
	// KindDirect is a plain bidirectional connection.
	KindDirect ChannelKind = iota
	// KindTrunk multiplexes several logical links over one channel.
	KindTrunk
	// KindRemote is the local half of a cross-process connection.
	KindRemote
)

func (k ChannelKind) String() string {
	switch k {
	case KindDirect:
		return "direct"
	case KindTrunk:
		return "trunk"
	case KindRemote:
		return "remote"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PlanComponent is one component's row in an execution plan.
type PlanComponent struct {
	Name  string
	Src   int32 // event-ordering source
	Group int   // runner group
}

// PlanChannel is one channel's row in an execution plan. Intra reports
// whether both ends land in the same runner group, in which case the
// channel is wired as zero-synchronization direct ports — the co-location
// saving — instead of a synchronized coupled channel.
type PlanChannel struct {
	Name         string
	Kind         ChannelKind
	Latency      sim.Time
	SyncInterval sim.Time
	GroupA       int
	GroupB       int // -1 for the remote half of a cross-process channel
	Links        int // logical links carried (>1 only for trunks)
	Sources      []int32
	Intra        bool
}

// ExecutionPlan is the single wiring blueprint every execution consumes:
// the component set with ordering sources, every channel with its
// synchronization parameters, and a normalized Placement mapping components
// to runner groups. Execute (execute.go) runs it; RunSequential builds the
// one-group plan, RunCoupled the per-component plan, and RunPlaced any
// placement in between. The plan itself is inspectable (`splitsim plan
// <exp>`) before anything runs.
type ExecutionPlan struct {
	Placement  decomp.Placement
	Comps      []PlanComponent
	GroupNames []string
	Channels   []PlanChannel

	s          *Simulation
	groupComps [][]int // component indices per group, in registration order
	grpOf      map[core.Component]int
}

// Plan resolves a placement against the simulation: the placement is
// normalized (dense group ids by first appearance), every channel is
// classified intra- or cross-group, and runner groups receive their labels.
// Remote connections always synchronize — their peer lives in another
// process — so their group is recorded as -1 on the far side.
func (s *Simulation) Plan(p decomp.Placement) (*ExecutionPlan, error) {
	norm, err := p.Normalized(len(s.comps))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(s.comps))
	for i, c := range s.comps {
		names[i] = c.Name()
	}
	pl := &ExecutionPlan{
		Placement:  norm,
		GroupNames: norm.GroupLabels(names),
		s:          s,
		grpOf:      make(map[core.Component]int, len(s.comps)),
	}
	pl.groupComps = make([][]int, len(pl.GroupNames))
	for i, c := range s.comps {
		g := norm.Groups[i]
		pl.Comps = append(pl.Comps, PlanComponent{Name: names[i], Src: s.srcOf[c], Group: g})
		pl.grpOf[c] = g
		pl.groupComps[g] = append(pl.groupComps[g], i)
	}
	effSync := func(latency, syncIv sim.Time) sim.Time {
		if syncIv <= 0 {
			return latency
		}
		return syncIv
	}
	for _, c := range s.conns {
		ga, gb := pl.grpOf[c.a.Comp], pl.grpOf[c.b.Comp]
		pl.Channels = append(pl.Channels, PlanChannel{
			Name: c.name, Kind: KindDirect,
			Latency: c.latency, SyncInterval: effSync(c.latency, c.syncIv),
			GroupA: ga, GroupB: gb, Links: 1,
			Sources: []int32{c.idA, c.idB}, Intra: ga == gb,
		})
	}
	for _, t := range s.trunks {
		ga, gb := pl.grpOf[t.compA], pl.grpOf[t.compB]
		srcs := make([]int32, 0, 2*len(t.pairs))
		for i := range t.pairs {
			srcs = append(srcs, t.idsA[i], t.idsB[i])
		}
		pl.Channels = append(pl.Channels, PlanChannel{
			Name: t.name, Kind: KindTrunk,
			Latency: t.latency, SyncInterval: effSync(t.latency, t.syncIv),
			GroupA: ga, GroupB: gb, Links: len(t.pairs),
			Sources: srcs, Intra: ga == gb,
		})
	}
	for _, rc := range s.remotes {
		pl.Channels = append(pl.Channels, PlanChannel{
			Name: rc.name, Kind: KindRemote,
			Latency: rc.ep.Latency(), SyncInterval: rc.ep.Channel().SyncInterval,
			GroupA: pl.grpOf[rc.side.Comp], GroupB: -1, Links: 1,
			Sources: []int32{rc.id}, Intra: false,
		})
	}
	return pl, nil
}

// NumGroups returns the number of runner groups.
func (pl *ExecutionPlan) NumGroups() int { return len(pl.GroupNames) }

// wire connects every channel for execution. scheds holds one scheduler per
// group and runners the matching runners.
//
// An intra-group channel becomes direct ports on the group's scheduler —
// delivery time (send + latency) and ordering source are chosen exactly as
// the coupled path chooses them, so any placement is event-for-event
// identical to any other. A cross-group channel becomes a synchronized
// link.Channel between the two runners. Each wiring clears the other mode's
// port/endpoint references so post-run accounting (ModelGraph) reads
// whichever was live.
func (pl *ExecutionPlan) wire(scheds []*sim.Scheduler, runners []*link.Runner) {
	s := pl.s
	for _, c := range s.conns {
		ga, gb := pl.grpOf[c.a.Comp], pl.grpOf[c.b.Comp]
		if ga == gb {
			sched := scheds[ga]
			c.portAB = link.NewDirectPort(sched, c.latency, c.idB, c.b.Sink)
			c.portBA = link.NewDirectPort(sched, c.latency, c.idA, c.a.Sink)
			c.epA, c.epB = nil, nil
			c.a.Bind(c.portAB)
			c.b.Bind(c.portBA)
			continue
		}
		ch := link.NewChannel(c.name, c.latency, c.syncIv)
		runners[ga].Attach(ch.SideA())
		runners[gb].Attach(ch.SideB())
		ch.SideA().SetSink(0, c.idA, c.a.Sink)
		ch.SideB().SetSink(0, c.idB, c.b.Sink)
		c.portAB, c.portBA = nil, nil
		c.epA, c.epB = ch.SideA(), ch.SideB()
		c.a.Bind(ch.SideA())
		c.b.Bind(ch.SideB())
	}
	for _, t := range s.trunks {
		ga, gb := pl.grpOf[t.compA], pl.grpOf[t.compB]
		if ga == gb {
			sched := scheds[ga]
			t.ports = t.ports[:0]
			t.epA, t.epB = nil, nil
			for i, p := range t.pairs {
				pa := link.NewDirectPort(sched, t.latency, t.idsB[i], p.SinkB)
				pb := link.NewDirectPort(sched, t.latency, t.idsA[i], p.SinkA)
				t.ports = append(t.ports, pa, pb)
				p.BindA(pa)
				p.BindB(pb)
			}
			continue
		}
		ch := link.NewChannel(t.name, t.latency, t.syncIv)
		runners[ga].Attach(ch.SideA())
		runners[gb].Attach(ch.SideB())
		ta, tb := link.NewTrunk(ch.SideA()), link.NewTrunk(ch.SideB())
		t.ports = nil
		t.epA, t.epB = ch.SideA(), ch.SideB()
		for i, p := range t.pairs {
			ta.Bind(uint16(i), t.idsA[i], p.SinkA)
			tb.Bind(uint16(i), t.idsB[i], p.SinkB)
			p.BindA(ta.Port(uint16(i)))
			p.BindB(tb.Port(uint16(i)))
		}
	}
	for _, rc := range s.remotes {
		runners[pl.grpOf[rc.side.Comp]].Attach(rc.ep)
		rc.ep.SetSink(0, rc.id, rc.side.Sink)
		rc.side.Bind(rc.ep)
	}
}

// HostModelParams returns decomposition-model parameters tuned to the
// executing host rather than the calibrated paper constants: the core
// budget is GOMAXPROCS and the per-sync cost is measured on this machine's
// actual channel fabric (link.MeasuredSyncCost — priced once per process,
// cached thereafter). AutoPlace fed with these parameters weighs core count
// and real sync cost — it stops splitting beyond the cores that exist and
// merges groups whose sync bill, at measured prices, exceeds their
// parallelism win.
func HostModelParams(duration sim.Time) decomp.Params {
	return decomp.HostParams(duration, runtime.GOMAXPROCS(0), link.MeasuredSyncCost())
}

// ModelGraph folds the simulation's per-component model graph to the
// plan's runner-group level: co-located components merge (their busy times
// add), intra-group channels vanish, cross-group channels keep their sync
// cost. Feed the result to decomp.Makespan for the placed prediction.
func (pl *ExecutionPlan) ModelGraph(duration sim.Time) ([]decomp.Comp, []decomp.Link, error) {
	comps, links := pl.s.ModelGraph(duration)
	return decomp.MergePlacement(comps, links, pl.Placement)
}

// String renders the plan for `splitsim plan`: a header line, the group
// table, and the channel table.
func (pl *ExecutionPlan) String() string {
	var b strings.Builder
	coupled, coloc := 0, 0
	for _, ch := range pl.Channels {
		if ch.Intra {
			coloc++
		} else {
			coupled++
		}
	}
	fmt.Fprintf(&b, "plan %q: %d components, %d groups, %d channels (%d coupled, %d co-located)\n",
		pl.Placement.Name, len(pl.Comps), pl.NumGroups(), len(pl.Channels), coupled, coloc)

	gt := stats.NewTable("group", "runner", "components")
	for gi, name := range pl.GroupNames {
		var members []string
		for _, ci := range pl.groupComps[gi] {
			members = append(members, pl.Comps[ci].Name)
		}
		gt.Row(gi, name, strings.Join(members, " "))
	}
	b.WriteString(gt.String())
	b.WriteByte('\n')

	ct := stats.NewTable("channel", "kind", "links", "latency", "sync", "groups", "mode")
	for _, ch := range pl.Channels {
		groups := fmt.Sprintf("%d-%d", ch.GroupA, ch.GroupB)
		mode := "coupled"
		if ch.Intra {
			mode = "direct"
		}
		if ch.Kind == KindRemote {
			groups = fmt.Sprintf("%d-remote", ch.GroupA)
		}
		ct.Row(ch.Name, ch.Kind, ch.Links, ch.Latency, ch.SyncInterval, groups, mode)
	}
	b.WriteString(ct.String())
	if cost := link.MeasuredSyncCost(); cost > 0 {
		fmt.Fprintf(&b, "measured sync cost on this host: %.0f ns/sync (%d coupled channels pay it per quantum)\n",
			cost, coupled)
	}
	return b.String()
}
