package profiler

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// EdgeProfile is one directed waiting relation: this simulator spent
// WaitFrac of its wall time blocked on Peer.
type EdgeProfile struct {
	Peer     string
	WaitFrac float64
}

// SimProfile is the per-simulator result of post-processing.
type SimProfile struct {
	Name string
	// WaitFrac is the fraction of wall time spent blocked on peers.
	WaitFrac float64
	// Efficiency is the fraction of cycles not spent on adapter work
	// (receive, transmit, synchronization) — the paper's efficiency metric
	// for judging when further parallelization hits diminishing returns.
	Efficiency float64
	// Edges lists waiting relations toward each peer.
	Edges []EdgeProfile
}

// Analysis is the post-processed profile of one simulation run.
type Analysis struct {
	// SimSpeed is virtual seconds simulated per wall-clock second.
	SimSpeed float64
	// Sims holds per-simulator profiles, sorted by ascending WaitFrac, so
	// the most probable bottleneck comes first.
	Sims []SimProfile
}

// Analyze post-processes samples: it groups them per simulator, drops
// dropWarm samples at the start and dropCool at the end (warm-up/cool-down,
// as the paper's post-processor does), and differences the remaining first
// and last snapshots.
func Analyze(samples []Sample, dropWarm, dropCool int) (*Analysis, error) {
	bySim := make(map[string][]Sample)
	var order []string
	for _, s := range samples {
		if _, seen := bySim[s.Sim]; !seen {
			order = append(order, s.Sim)
		}
		bySim[s.Sim] = append(bySim[s.Sim], s)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("profiler: no samples")
	}
	a := &Analysis{}
	var speedSet bool
	for _, name := range order {
		ss := bySim[name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Virt < ss[j].Virt })
		ss = ss[min(dropWarm, len(ss)):]
		if dropCool < len(ss) {
			ss = ss[:len(ss)-dropCool]
		} else {
			ss = nil
		}
		if len(ss) < 2 {
			return nil, fmt.Errorf("profiler: simulator %s has %d usable samples, need >= 2", name, len(ss))
		}
		first, last := ss[0], ss[len(ss)-1]
		wall := float64(last.WallNs - first.WallNs)
		virt := last.Virt - first.Virt
		if wall <= 0 {
			return nil, fmt.Errorf("profiler: simulator %s has non-increasing wall clock", name)
		}
		if !speedSet {
			// Synchronized components advance virtual time together; any
			// simulator's ratio is the global simulation speed.
			a.SimSpeed = virt.Seconds() / (wall / 1e9)
			speedSet = true
		}
		p := SimProfile{Name: name}
		var waitNs, adapterNs float64
		for ai := range last.Adapters {
			la := last.Adapters[ai]
			var fw AdapterSample
			for _, f := range first.Adapters {
				if f.Label == la.Label {
					fw = f
					break
				}
			}
			dWait := float64(la.WaitNanos - fw.WaitNanos)
			dProc := float64(la.ProcNanos - fw.ProcNanos)
			waitNs += dWait
			adapterNs += dWait + dProc
			p.Edges = append(p.Edges, EdgeProfile{
				Peer:     la.Peer,
				WaitFrac: clamp01(dWait / wall),
			})
		}
		p.WaitFrac = clamp01(waitNs / wall)
		p.Efficiency = clamp01(1 - adapterNs/wall)
		a.Sims = append(a.Sims, p)
	}
	sort.Slice(a.Sims, func(i, j int) bool {
		if a.Sims[i].WaitFrac != a.Sims[j].WaitFrac {
			return a.Sims[i].WaitFrac < a.Sims[j].WaitFrac
		}
		return a.Sims[i].Name < a.Sims[j].Name
	})
	return a, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Bottlenecks returns the simulators whose wait fraction is below thresh —
// the red nodes of the WTPG: they rarely wait, everyone waits for them.
func (a *Analysis) Bottlenecks(thresh float64) []string {
	var out []string
	for _, s := range a.Sims {
		if s.WaitFrac < thresh {
			out = append(out, s.Name)
		}
	}
	return out
}

// String renders a compact textual summary.
func (a *Analysis) String() string {
	out := fmt.Sprintf("simulation speed: %.6f virtual s / wall s\n", a.SimSpeed)
	for _, s := range a.Sims {
		out += fmt.Sprintf("  %-24s wait=%5.1f%% efficiency=%5.1f%%\n",
			s.Name, s.WaitFrac*100, s.Efficiency*100)
	}
	return out
}

var _ = sim.Second
