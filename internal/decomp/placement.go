package decomp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/profiler"
	"repro/internal/sim"
)

// Placement assigns each component of an orchestrated simulation to a
// runner group. Components sharing a group execute on one scheduler in one
// goroutine; the channels between them degrade to zero-synchronization
// direct ports — the decomposition saving in reverse. The paper's
// "parallelization through decomposition" is exactly the choice of this
// mapping: one group is the sequential simulator, one group per component
// is the fully decomposed one, and everything in between trades
// synchronization overhead against parallelism.
//
// A Placement is pure data so that partition strategies, the performance
// model, and the profiler-driven recommender can all emit one, and the
// orchestrator (package orch) can execute any of them bit-identically.
type Placement struct {
	// Name labels the placement in plans and experiment tables
	// ("s", "ac", "auto", ...).
	Name string
	// Groups[i] is the runner group of component i, in the simulation's
	// component registration order. Group ids need not be dense; Normalized
	// relabels them by first appearance.
	Groups []int
}

// PerComponent is the classic coupled placement: every component its own
// runner (one process per simulator, as SimBricks fixes it).
func PerComponent(n int) Placement {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return Placement{Name: "percomp", Groups: g}
}

// SingleGroup co-locates every component on one runner — the sequential
// execution expressed as a placement.
func SingleGroup(n int) Placement {
	return Placement{Name: "s", Groups: make([]int, n)}
}

// Normalized validates the placement against a component count and returns
// a copy whose group ids are dense (0..G-1), numbered by first appearance.
// Dense, appearance-ordered ids make every downstream artifact — runner
// order, group labels, plan rendering — deterministic.
func (p Placement) Normalized(nComps int) (Placement, error) {
	if len(p.Groups) != nComps {
		return Placement{}, fmt.Errorf("decomp: placement %q covers %d components, simulation has %d",
			p.Name, len(p.Groups), nComps)
	}
	relabel := make(map[int]int, len(p.Groups))
	out := make([]int, len(p.Groups))
	for i, g := range p.Groups {
		if g < 0 {
			return Placement{}, fmt.Errorf("decomp: placement %q gives component %d negative group %d",
				p.Name, i, g)
		}
		d, ok := relabel[g]
		if !ok {
			d = len(relabel)
			relabel[g] = d
		}
		out[i] = d
	}
	return Placement{Name: p.Name, Groups: out}, nil
}

// NumGroups counts distinct groups.
func (p Placement) NumGroups() int {
	seen := make(map[int]bool, len(p.Groups))
	for _, g := range p.Groups {
		seen[g] = true
	}
	return len(seen)
}

// Key renders the normalized group vector as a canonical string, usable for
// equality checks and cycle detection in the recommender loop.
func (p Placement) Key() string {
	n, err := p.Normalized(len(p.Groups))
	if err != nil {
		return "invalid:" + err.Error()
	}
	var b strings.Builder
	for i, g := range n.Groups {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", g)
	}
	return b.String()
}

// GroupLabels names each group of a normalized placement: a singleton group
// borrows its component's name, a larger group is "<first>+<k>" for the k
// extra members. Runner names, plan rendering, and the recommender's
// profile lookup all use these labels, so they must agree everywhere.
func (p Placement) GroupLabels(compNames []string) []string {
	first := make([]int, 0)
	size := make([]int, 0)
	for i, g := range p.Groups {
		for g >= len(first) {
			first = append(first, -1)
			size = append(size, 0)
		}
		if first[g] < 0 {
			first[g] = i
		}
		size[g]++
	}
	labels := make([]string, len(first))
	for g := range first {
		if first[g] < 0 {
			labels[g] = fmt.Sprintf("g%d", g)
			continue
		}
		labels[g] = compNames[first[g]]
		if size[g] > 1 {
			labels[g] = fmt.Sprintf("%s+%d", compNames[first[g]], size[g]-1)
		}
	}
	return labels
}

// Coarsen lifts a coarse partition assignment onto the parts of a finer
// one: fine part p maps to the group coarse assigns to p's members, which
// must agree (fine must refine coarse — rs refines ac, crN, and s). Both
// slices are indexed by the underlying unit (switch); the result is indexed
// by fine part id. This is how a Strategy emits a Placement over a
// simulation that was built at the finest partitioning.
func Coarsen(fine, coarse []int) ([]int, error) {
	if len(fine) != len(coarse) {
		return nil, fmt.Errorf("decomp: coarsen over %d vs %d units", len(fine), len(coarse))
	}
	nParts := 0
	for i, p := range fine {
		if p < 0 {
			return nil, fmt.Errorf("decomp: negative fine partition for unit %d", i)
		}
		if p+1 > nParts {
			nParts = p + 1
		}
	}
	out := make([]int, nParts)
	set := make([]bool, nParts)
	for i, p := range fine {
		if !set[p] {
			out[p] = coarse[i]
			set[p] = true
			continue
		}
		if out[p] != coarse[i] {
			return nil, fmt.Errorf("decomp: fine partition %d spans coarse groups %d and %d (fine must refine coarse)",
				p, out[p], coarse[i])
		}
	}
	for p, ok := range set {
		if !ok {
			return nil, fmt.Errorf("decomp: fine partition %d has no members", p)
		}
	}
	return out, nil
}

// MergePlacement folds a per-component model graph to the runner-group
// level of a placement: components sharing a group merge into one Comp
// (busy times add — a group is one sequential process), links inside one
// group vanish (co-located channels cost no synchronization), and
// cross-group links between one pair of groups at one Quantum fold into one
// Link with their summed Msgs — the one synchronized channel the executor
// bundles them onto, which pays one sync per quantum. The merged Comp names
// are the placement's group labels, so modeled analyses of the merged graph
// key by the same names the executed runners carry.
func MergePlacement(comps []Comp, links []Link, p Placement) ([]Comp, []Link, error) {
	norm, err := p.Normalized(len(comps))
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.Name
	}
	labels := norm.GroupLabels(names)
	merged := make([]Comp, len(labels))
	for g, l := range labels {
		merged[g].Name = l
	}
	for i, c := range comps {
		merged[norm.Groups[i]].BusyNs += c.BusyNs
	}
	type bundleKey struct {
		lo, hi  int
		quantum sim.Time
	}
	var mlinks []Link
	at := make(map[bundleKey]int)
	for _, l := range links {
		ga, gb := norm.Groups[l.A], norm.Groups[l.B]
		if ga == gb {
			continue
		}
		k := bundleKey{min(ga, gb), max(ga, gb), l.Quantum}
		if i, ok := at[k]; ok {
			mlinks[i].Msgs += l.Msgs
			continue
		}
		at[k] = len(mlinks)
		mlinks = append(mlinks, Link{A: ga, B: gb, Msgs: l.Msgs, Quantum: l.Quantum})
	}
	return merged, mlinks, nil
}

// The recommender's thresholds: a group whose runner waits less than
// splitBelow of wall time (the WTPG's red bottleneck) is split in two, and a
// linked pair of groups that both wait more than mergeAbove are idling on
// synchronization and get merged.
const (
	splitBelow = 0.15
	mergeAbove = 0.5
)

// RecommendPlacement performs one greedy refinement step driven by a
// wait-time profile of the current placement — either a live
// profiler.Analyze of a coupled run or a deterministic ModeledAnalysis of
// the merged model graph. The profile's simulator names must be the
// placement's group labels (runner names, as orch assigns them).
//
// Two moves, on disjoint groups, per step:
//
//   - split: the bottleneck group — lowest wait fraction below splitBelow,
//     at least two members — is bisected by balancing modeled busy cost, so
//     its work can run in parallel;
//   - merge: the idlest linked pair of groups — both waiting above
//     mergeAbove — is co-located, deleting their mutual synchronization.
//
// Splitting stops at one group per component, and at cores groups when
// cores > 0: splitting past the physical core count adds synchronization
// without adding concurrent execution. cores 0 is the model-reproduction
// default, where the paper assumes one core per process.
//
// The returned placement is normalized; applying the step to the same
// profile is idempotent only at a fixed point, so callers loop (AutoPlace)
// or re-profile between steps.
func RecommendPlacement(cur Placement, comps []Comp, links []Link, a *profiler.Analysis, cores int) Placement {
	maxGroups := len(comps)
	if cores > 0 && maxGroups > cores {
		maxGroups = cores
	}
	norm, err := cur.Normalized(len(comps))
	if err != nil {
		panic(err.Error())
	}
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.Name
	}
	labels := norm.GroupLabels(names)
	G := len(labels)

	wait := make([]float64, G)
	known := make([]bool, G)
	byLabel := make(map[string]int, G)
	for g, l := range labels {
		byLabel[l] = g
	}
	for _, sp := range a.Sims {
		if g, ok := byLabel[sp.Name]; ok {
			wait[g] = sp.WaitFrac
			known[g] = true
		}
	}
	members := make([][]int, G)
	for i, g := range norm.Groups {
		members[g] = append(members[g], i)
	}
	out := append([]int(nil), norm.Groups...)

	// Split the bottleneck group by busy-cost bisection.
	split := -1
	if G < maxGroups {
		for g := 0; g < G; g++ {
			if !known[g] || len(members[g]) < 2 || wait[g] >= splitBelow {
				continue
			}
			if split < 0 || wait[g] < wait[split] {
				split = g
			}
		}
		if split >= 0 {
			ms := append([]int(nil), members[split]...)
			sort.SliceStable(ms, func(i, j int) bool {
				return comps[ms[i]].BusyNs > comps[ms[j]].BusyNs
			})
			var loadA, loadB float64
			for _, ci := range ms {
				if loadB < loadA {
					out[ci] = G
					loadB += comps[ci].BusyNs
				} else {
					loadA += comps[ci].BusyNs
				}
			}
		}
	}

	// Merge the idlest linked pair (skipping the group just split).
	ma, mb, best := -1, -1, 0.0
	for _, l := range links {
		ga, gb := norm.Groups[l.A], norm.Groups[l.B]
		if ga == gb || ga == split || gb == split {
			continue
		}
		if !known[ga] || !known[gb] || wait[ga] <= mergeAbove || wait[gb] <= mergeAbove {
			continue
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		score := wait[ga] + wait[gb]
		if score > best || (score == best && (ma < 0 || ga < ma || (ga == ma && gb < mb))) {
			ma, mb, best = ga, gb, score
		}
	}
	if ma >= 0 {
		for _, ci := range members[mb] {
			out[ci] = ma
		}
	}

	next, err := Placement{Name: cur.Name, Groups: out}.Normalized(len(comps))
	if err != nil {
		panic(err.Error())
	}
	return next
}

// AutoPlace closes the profiler→placement feedback loop deterministically:
// starting from one runner per component, it repeatedly models the placed
// run (MergePlacement + ModeledAnalysis) and applies RecommendPlacement
// until the placement reaches a fixed point or revisits a previous state.
// Because the analysis is modeled from accounted costs, the result is
// reproducible on any machine; a live harness can run the same loop with
// profiler.Analyze output instead.
//
// params.Cores, when set (HostParams sets it to the real core count), flows
// into both sides of the loop: the makespan model schedules groups onto
// that many cores (lpt) and the recommender stops splitting beyond them.
// With host-measured sync costs in params the loop recommends placements
// for the machine in front of it, not the paper's idealized one-core-per-
// process cluster.
func AutoPlace(comps []Comp, links []Link, params Params) Placement {
	cur := PerComponent(len(comps))
	cur.Name = "auto"
	seen := map[string]bool{}
	for iter := 0; iter < 64; iter++ {
		merged, mlinks, err := MergePlacement(comps, links, cur)
		if err != nil {
			panic(err.Error())
		}
		if len(merged) < 2 {
			break // fully co-located: nothing left to profile or merge
		}
		a := ModeledAnalysis(merged, mlinks, params)
		next := RecommendPlacement(cur, comps, links, a, params.Cores)
		k := next.Key()
		if k == cur.Key() || seen[k] {
			break
		}
		seen[cur.Key()] = true
		cur = next
	}
	return cur
}
