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
	Name    string
	Kind    ChannelKind
	Latency sim.Time
	GroupA  int
	GroupB  int // -1 for the remote half of a cross-process channel
	Links   int // logical links carried (>1 only for trunks)
	Sources []int32
	Intra   bool
}

// ExecutionPlan is the single wiring blueprint every execution consumes:
// the component set with ordering sources, every channel with its latency,
// and a normalized Placement mapping components to runner groups. Execute
// (execute.go) runs it; RunSequential builds the one-group plan, RunCoupled
// the per-component plan, and RunParallel any placement in between. The
// plan itself is inspectable (`splitsim plan <exp>`) before anything runs.
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
// process — so their group is recorded as -1 on the far side. A channel that
// cannot be wired fails the plan with a wrapped ErrBadChannel.
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
	seen := make(map[string]bool, len(s.chans))
	for _, c := range s.chans {
		reason := c.check()
		if reason == "" && seen[c.name] {
			reason = "name already used by another channel"
		}
		if reason != "" {
			return nil, fmt.Errorf("%w %q: %s", ErrBadChannel, c.name, reason)
		}
		seen[c.name] = true
		g := c.groups(pl)
		srcs := make([]int32, 0, 2*len(c.links))
		for _, l := range c.links {
			for x, comp := range c.comp {
				if comp != nil {
					srcs = append(srcs, l.src[x])
				}
			}
		}
		pl.Channels = append(pl.Channels, PlanChannel{
			Name: c.name, Kind: c.kind, Latency: c.latency,
			GroupA: g[0], GroupB: g[1], Links: len(c.links),
			Sources: srcs, Intra: g[0] == g[1],
		})
	}
	return pl, nil
}

// NumGroups returns the number of runner groups.
func (pl *ExecutionPlan) NumGroups() int { return len(pl.GroupNames) }

// wire connects every channel for execution. scheds holds one scheduler per
// group and runners the matching runners.
//
// A channel whose ends share a group becomes direct ports on the group's
// scheduler, one pair per link — delivery time (send + latency) and ordering
// source are chosen exactly as the coupled path chooses them, so any
// placement is event-for-event identical to any other. Any other channel is
// one synchronized link.Channel between the two runners, each link a
// sub-channel of it; only the local end of a remote channel is attached. The
// wiring not chosen is cleared so post-run accounting reads the live one.
func (pl *ExecutionPlan) wire(scheds []*sim.Scheduler, runners []*link.Runner) {
	for _, c := range pl.s.chans {
		g := c.groups(pl)
		c.ports = c.ports[:0]
		if g[0] == g[1] {
			c.ep = [2]*link.Endpoint{}
			for _, l := range c.links {
				for x := range c.comp {
					p := link.NewDirectPort(scheds[g[0]], c.latency, l.src[1-x], l.sink[1-x])
					c.ports = append(c.ports, p)
					l.bind[x](p)
				}
			}
			continue
		}
		if c.comp[1] != nil {
			ch := link.NewChannel(c.name, c.latency)
			c.ep = [2]*link.Endpoint{ch.SideA(), ch.SideB()}
		}
		for x, comp := range c.comp {
			if comp == nil {
				continue
			}
			runners[g[x]].Attach(c.ep[x])
			for i, l := range c.links {
				c.ep[x].SetSink(uint16(i), l.src[x], l.sink[x])
				l.bind[x](c.ep[x].SubPort(uint16(i)))
			}
		}
	}
}

// HostModelParams returns decomposition-model parameters tuned to the
// executing host rather than the calibrated paper constants: the core
// budget is min(GOMAXPROCS, NumCPU) — Ps beyond the CPUs that exist run
// nothing in parallel — and the per-sync cost is measured on this machine's
// actual channel fabric (link.MeasuredSyncCost — priced once per process,
// cached thereafter). AutoPlace fed with these parameters weighs core count
// and real sync cost — it stops splitting beyond the cores that exist and
// merges groups whose sync bill, at measured prices, exceeds their
// parallelism win.
func HostModelParams(duration sim.Time) decomp.Params {
	cores := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	return decomp.HostParams(duration, cores, link.MeasuredSyncCost())
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

	ct := stats.NewTable("channel", "kind", "links", "latency", "groups", "mode")
	for _, ch := range pl.Channels {
		groups := fmt.Sprintf("%d-%d", ch.GroupA, ch.GroupB)
		mode := "coupled"
		if ch.Intra {
			mode = "direct"
		}
		if ch.GroupB < 0 {
			groups = fmt.Sprintf("%d-remote", ch.GroupA)
		}
		ct.Row(ch.Name, ch.Kind, ch.Links, ch.Latency, groups, mode)
	}
	b.WriteString(ct.String())
	if cost := link.MeasuredSyncCost(); cost > 0 {
		fmt.Fprintf(&b, "measured sync cost on this host: %.0f ns/sync (%d coupled channels pay it per quantum)\n",
			cost, coupled)
	}
	return b.String()
}
