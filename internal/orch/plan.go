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
	// KindDirect is a bidirectional connection between two local components.
	KindDirect ChannelKind = iota
	// KindRemote is the local half of a cross-process connection.
	KindRemote
)

func (k ChannelKind) String() string {
	switch k {
	case KindDirect:
		return "direct"
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
	// Sources are the ordering sources of deliveries into the channel's
	// local sinks, end A's first. The slice is the channel's own: read it,
	// do not modify it.
	Sources []int32
	Intra   bool
	// Bundle is the index of the synchronized endpoint pair the channel
	// rides, -1 for an intra-group channel. Every in-process channel between
	// one pair of groups at one latency shares a bundle — the trunk adapter
	// applied at plan time, so the cut pays one sync per window however many
	// channels cross it — and each remote channel has its own.
	Bundle int
	// Lookahead is how far each end may run past the other's clock on the
	// channel's bundle, end A's first: the latency plus the least reaction
	// lag (core.Lagger) over the sinks the bundle feeds on that end's side.
	// It sets the coupled channel's sync pacing — one sync per lookahead
	// window. Zero for an intra-group channel and for the out-of-process
	// end of a remote one.
	Lookahead [2]sim.Time

	sub uint16 // the channel's sub-channel id on its bundle
}

// maxBundleChans is how many channels one bundle carries: a message names
// its sub-channel in 16 bits.
const maxBundleChans = 1 << 16

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

	bundles    int // synchronized endpoint pairs (Bundle ids 0..bundles-1)
	s          *Simulation
	groupComps [][]int // component indices per group, in registration order
	grpOf      map[core.Component]int
}

// Plan resolves a placement against the simulation: the placement is
// normalized (dense group ids by first appearance), every channel is
// classified intra- or cross-group, cross-group channels are bundled, and
// runner groups receive their labels. Remote connections always synchronize
// — their peer lives in another process — so their group is recorded as -1
// on the far side. A channel that cannot be wired fails the plan with a
// wrapped ErrBadChannel.
//
// Bundling is keyed by (lower group, higher group, latency): keying on the
// exact latency keeps every channel's lookahead and delivery time what its
// own synchronized link would give it, and each channel keeps its ordering
// sources, so a bundled run is event-for-event the unbundled one. Channels
// take the bundle's sub-channel ids densely in registration order; the
// channel past maxBundleChans opens a second bundle for the same key.
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
		Channels:   make([]PlanChannel, 0, len(s.chans)),
	}
	pl.groupComps = make([][]int, len(pl.GroupNames))
	for i, c := range s.comps {
		g := norm.Groups[i]
		pl.Comps = append(pl.Comps, PlanComponent{Name: names[i], Src: s.srcOf[c], Group: g})
		pl.grpOf[c] = g
		pl.groupComps[g] = append(pl.groupComps[g], i)
	}
	type bundleKey struct {
		lo, hi int
		lat    sim.Time
	}
	var open map[bundleKey]int // key → the bundle still taking channels
	var fill []int             // channels per bundle
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
		pc := PlanChannel{
			Name: c.name, Latency: c.latency, GroupA: g[0], GroupB: g[1],
			Sources: c.src[:], Intra: g[0] == g[1], Bundle: -1,
		}
		switch {
		case pc.Intra:
		case c.comp[1] == nil:
			pc.Kind, pc.Sources = KindRemote, c.src[:1]
			pc.Bundle = len(fill)
			fill = append(fill, 1)
		default:
			k := bundleKey{min(g[0], g[1]), max(g[0], g[1]), c.latency}
			b, ok := open[k]
			if !ok || fill[b] == maxBundleChans {
				if open == nil {
					open = make(map[bundleKey]int)
				}
				b = len(fill)
				fill = append(fill, 0)
				open[k] = b
			}
			pc.Bundle, pc.sub = b, uint16(fill[b])
			fill[b]++
		}
		pl.Channels = append(pl.Channels, pc)
	}
	pl.bundles = len(fill)
	pl.setLookahead()
	return pl, nil
}

// setLookahead fills every coupled channel's Lookahead with what its bundle's
// endpoints will compute at wiring: latency plus the least sink lag on the
// receiving group's side of the bundle.
func (pl *ExecutionPlan) setLookahead() {
	type side struct{ bundle, group int }
	least := make(map[side]sim.Time)
	each := func(fn func(pc *PlanChannel, x int, k side, lag sim.Time)) {
		for ci, c := range pl.s.chans {
			pc := &pl.Channels[ci]
			g := [2]int{pc.GroupA, pc.GroupB}
			for x := range g {
				if pc.Bundle >= 0 && c.comp[x] != nil {
					fn(pc, x, side{pc.Bundle, g[x]}, core.LagOf(c.sink[x]))
				}
			}
		}
	}
	each(func(_ *PlanChannel, _ int, k side, lag sim.Time) {
		if l, ok := least[k]; !ok || lag < l {
			least[k] = lag
		}
	})
	each(func(pc *PlanChannel, x int, k side, _ sim.Time) { pc.Lookahead[x] = pc.Latency + least[k] })
}

// NumGroups returns the number of runner groups.
func (pl *ExecutionPlan) NumGroups() int { return len(pl.GroupNames) }

// wire connects every channel for execution. scheds holds one scheduler per
// group and runners the matching runners.
//
// A channel whose ends share a group becomes a pair of direct ports on the
// group's scheduler — delivery time (send + latency) and ordering source are
// chosen exactly as the coupled path chooses them, so any placement is
// event-for-event identical to any other. Any other channel rides its plan
// bundle: one synchronized link.Channel between the two runners, built when
// its first channel is wired, whose side A belongs to the lower-numbered
// group; the channel is the sub-channel the plan gave it. Only the local end
// of a remote channel is attached. The wiring not chosen is cleared so
// post-run accounting reads the live one.
func (pl *ExecutionPlan) wire(scheds []*sim.Scheduler, runners []*link.Runner) {
	bundles := make([][2]*link.Endpoint, pl.bundles)
	for ci, c := range pl.s.chans {
		pc := &pl.Channels[ci]
		c.ports = [2]*link.DirectPort{}
		if pc.Intra {
			c.ep = [2]*link.Endpoint{}
			for x := range c.comp {
				c.ports[x] = link.NewDirectPort(scheds[pc.GroupA], c.latency, c.src[1-x], c.sink[1-x])
				c.bind[x](c.ports[x])
			}
			continue
		}
		if c.comp[1] == nil {
			runners[pc.GroupA].Attach(c.ep[0])
		} else {
			lo, hi := min(pc.GroupA, pc.GroupB), max(pc.GroupA, pc.GroupB)
			b := &bundles[pc.Bundle]
			if b[0] == nil {
				ch := link.NewChannel(c.name, c.latency)
				*b = [2]*link.Endpoint{ch.SideA(), ch.SideB()}
				runners[lo].Attach(b[0])
				runners[hi].Attach(b[1])
			}
			c.ep = *b
			if pc.GroupA == hi {
				c.ep[0], c.ep[1] = c.ep[1], c.ep[0]
			}
		}
		c.sub = pc.sub
		for x, ep := range c.ep {
			if ep != nil {
				ep.SetSink(c.sub, c.src[x], c.sink[x])
				c.bind[x](ep.SubPort(c.sub))
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
// table, and the channel table with each coupled channel's sync bundle and
// its lookahead in each direction, which sets the bundle's sync pacing.
func (pl *ExecutionPlan) String() string {
	var b strings.Builder
	coloc := 0
	for _, ch := range pl.Channels {
		if ch.Intra {
			coloc++
		}
	}
	fmt.Fprintf(&b, "plan %q: %d components, %d groups, %d channels (%d coupled on %d sync bundles, %d co-located)\n",
		pl.Placement.Name, len(pl.Comps), pl.NumGroups(), len(pl.Channels), len(pl.Channels)-coloc, pl.bundles, coloc)

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

	ct := stats.NewTable("channel", "kind", "latency", "groups", "mode", "bundle", "lookahead a>b", "lookahead b>a")
	for _, ch := range pl.Channels {
		groups := fmt.Sprintf("%d-%d", ch.GroupA, ch.GroupB)
		mode, bundle := "coupled", fmt.Sprint(ch.Bundle)
		// a>b is the lookahead into end B, b>a into end A.
		look := [2]string{"-", "-"}
		for x, l := range ch.Lookahead {
			if l > 0 {
				look[1-x] = fmt.Sprint(l)
			}
		}
		if ch.Intra {
			mode, bundle = "direct", "-"
		}
		if ch.GroupB < 0 {
			groups = fmt.Sprintf("%d-remote", ch.GroupA)
		}
		ct.Row(ch.Name, ch.Kind, ch.Latency, groups, mode, bundle, look[0], look[1])
	}
	b.WriteString(ct.String())
	if cost := link.MeasuredSyncCost(); cost > 0 {
		fmt.Fprintf(&b, "measured sync cost on this host: %.0f ns/sync (%d sync bundles pay it per quantum)\n",
			cost, pl.bundles)
	}
	return b.String()
}
