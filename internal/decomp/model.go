package decomp

import (
	"sort"

	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// Comp is one simulator process in the performance model.
type Comp struct {
	Name string
	// BusyNs is the simulation work the component performs over the
	// modeled duration (event costs plus time tax), in host nanoseconds.
	BusyNs float64
}

// Link is one synchronized channel between two components. Several logical
// links multiplexed over a trunk adapter are ONE Link with the combined
// message count — which is exactly the trunk adapter's saving.
type Link struct {
	A, B int // indices into the component list
	// Msgs is the number of data messages crossing in both directions.
	Msgs uint64
	// Quantum is the synchronization interval (usually the link latency).
	Quantum sim.Time
}

// Params tunes the cost model. Defaults (see DefaultParams) are calibrated
// against the relative numbers the paper reports; EXPERIMENTS.md discusses
// the calibration.
type Params struct {
	// Duration is the simulated time span.
	Duration sim.Time
	// Cores is the number of physical cores available (0 = one per comp).
	Cores int
	// SyncCostNs is charged per synchronization quantum per channel per
	// side (polling plus null-message handling).
	SyncCostNs float64
	// MsgCostNs is charged per data message per side (serialize, queue,
	// deliver).
	MsgCostNs float64
	// BarrierBaseNs and BarrierPerPartNs model the native (MPI-style)
	// global barrier alternative: every component pays
	// BarrierBaseNs + BarrierPerPartNs*P per quantum.
	BarrierBaseNs    float64
	BarrierPerPartNs float64
}

// DefaultParams returns the calibrated model constants.
func DefaultParams(duration sim.Time) Params {
	return Params{
		Duration:         duration,
		SyncCostNs:       300,
		MsgCostNs:        250,
		BarrierBaseNs:    1800,
		BarrierPerPartNs: 160,
	}
}

// HostParams returns model constants tuned to the executing host instead of
// the calibrated paper constants: cores is the real parallelism budget
// (runtime.GOMAXPROCS as the orchestrator passes it) and measuredSyncNs the
// per-sync cost measured on this machine's channel fabric
// (link.MeasureSyncCost via orch.HostModelParams). Zero or negative inputs
// keep the calibrated defaults, so HostParams degrades gracefully when
// calibration is unavailable. Feeding these parameters to AutoPlace makes
// the recommender weigh core count and measured sync cost, not just
// accounted nanos.
func HostParams(duration sim.Time, cores int, measuredSyncNs float64) Params {
	p := DefaultParams(duration)
	if cores > 0 {
		p.Cores = cores
	}
	if measuredSyncNs > 0 {
		p.SyncCostNs = measuredSyncNs
		// A data message rides the same publish/drain path as a sync plus
		// payload hand-off; scale the message price by the measured/default
		// sync ratio so the two stay in proportion.
		p.MsgCostNs *= measuredSyncNs / DefaultParams(duration).SyncCostNs
	}
	return p
}

// Result is the model's prediction for one configuration.
type Result struct {
	// SeqNs is the runtime with everything in one process (no channels).
	SeqNs float64
	// ParNs is the parallel makespan including synchronization overhead.
	ParNs float64
	// PerComp maps component name to its busy time including channel
	// overhead — the modeled profile.
	PerComp map[string]float64
	// Overhead maps component name to its channel overhead alone.
	Overhead map[string]float64
	// SimSpeed is virtual seconds per modeled wall second for the parallel
	// configuration.
	SimSpeed float64
	// Speedup is SeqNs/ParNs.
	Speedup float64
}

// Makespan predicts sequential and SplitSim-parallel runtime.
func Makespan(comps []Comp, links []Link, p Params) Result {
	return model(comps, links, p, false)
}

// NativeBarrier predicts runtime under MPI-style global-barrier
// synchronization of the same partitions.
func NativeBarrier(comps []Comp, links []Link, p Params) Result {
	return model(comps, links, p, true)
}

func model(comps []Comp, links []Link, p Params, barrier bool) Result {
	n := len(comps)
	if n == 0 {
		panic("decomp: no components")
	}
	overhead := make([]float64, n)
	if barrier {
		// Every component pays the global barrier each quantum. Use the
		// smallest quantum of any link (the barrier must respect the
		// tightest lookahead).
		minQ := sim.Infinity
		for _, l := range links {
			if l.Quantum < minQ {
				minQ = l.Quantum
			}
		}
		if minQ < sim.Infinity && minQ > 0 {
			rounds := float64(p.Duration) / float64(minQ)
			per := p.BarrierBaseNs + p.BarrierPerPartNs*float64(n)
			for i := range comps {
				overhead[i] += rounds * per
			}
		}
		// Data messages still cost on both sides.
		for _, l := range links {
			c := float64(l.Msgs) * p.MsgCostNs
			overhead[l.A] += c
			overhead[l.B] += c
		}
	} else {
		for _, l := range links {
			syncs := 0.0
			if l.Quantum > 0 {
				syncs = float64(p.Duration) / float64(l.Quantum)
			}
			c := syncs*p.SyncCostNs + float64(l.Msgs)*p.MsgCostNs
			overhead[l.A] += c
			overhead[l.B] += c
		}
	}

	r := Result{PerComp: make(map[string]float64, n), Overhead: make(map[string]float64, n)}
	loads := make([]float64, n)
	for i, c := range comps {
		r.SeqNs += c.BusyNs
		loads[i] = c.BusyNs + overhead[i]
		r.PerComp[c.Name] = loads[i]
		r.Overhead[c.Name] = overhead[i]
	}
	cores := p.Cores
	if cores <= 0 || cores > n {
		cores = n
	}
	r.ParNs = lpt(loads, cores)
	if r.ParNs > 0 {
		r.SimSpeed = p.Duration.Seconds() / (r.ParNs / 1e9)
		r.Speedup = r.SeqNs / r.ParNs
	}
	return r
}

// lpt schedules loads onto cores with longest-processing-time-first and
// returns the makespan.
func lpt(loads []float64, cores int) float64 {
	sorted := append([]float64(nil), loads...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	bins := make([]float64, cores)
	for _, l := range sorted {
		mi := 0
		for i := 1; i < cores; i++ {
			if bins[i] < bins[mi] {
				mi = i
			}
		}
		bins[mi] += l
	}
	max := 0.0
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	return max
}

// BusyOf extracts a component's modeled busy time: accumulated event costs
// plus its time tax over the duration.
func BusyOf(c core.Component, duration sim.Time) float64 {
	var busy float64
	if coster, ok := c.(core.Coster); ok {
		busy = float64(coster.Cost().BusyNanos())
	}
	if taxer, ok := c.(interface{ TimeTaxNsPerVirtualUs() float64 }); ok {
		busy += taxer.TimeTaxNsPerVirtualUs() * duration.Microseconds()
	}
	return busy
}

// ModeledAnalysis converts a model result into a profiler.Analysis so the
// standard WTPG renderer can visualize modeled runs: a component's wait
// fraction is its idle share of the makespan, attributed to neighbors in
// proportion to their load.
func ModeledAnalysis(comps []Comp, links []Link, p Params) *profiler.Analysis {
	res := Makespan(comps, links, p)
	a := &profiler.Analysis{SimSpeed: res.SimSpeed}
	neighbors := make([][]int, len(comps))
	for _, l := range links {
		neighbors[l.A] = append(neighbors[l.A], l.B)
		neighbors[l.B] = append(neighbors[l.B], l.A)
	}
	for i, c := range comps {
		load := res.PerComp[c.Name]
		wait := 0.0
		if res.ParNs > 0 {
			wait = (res.ParNs - load) / res.ParNs
		}
		sp := profiler.SimProfile{Name: c.Name, WaitFrac: wait, Efficiency: 1 - wait}
		var nbLoad float64
		for _, nb := range neighbors[i] {
			nbLoad += res.PerComp[comps[nb].Name]
		}
		for _, nb := range neighbors[i] {
			frac := 0.0
			if nbLoad > 0 {
				frac = wait * res.PerComp[comps[nb].Name] / nbLoad
			}
			sp.Edges = append(sp.Edges, profiler.EdgeProfile{
				Peer: comps[nb].Name, WaitFrac: frac,
			})
		}
		a.Sims = append(a.Sims, sp)
	}
	sort.Slice(a.Sims, func(i, j int) bool {
		if a.Sims[i].WaitFrac != a.Sims[j].WaitFrac {
			return a.Sims[i].WaitFrac < a.Sims[j].WaitFrac
		}
		return a.Sims[i].Name < a.Sims[j].Name
	})
	return a
}
