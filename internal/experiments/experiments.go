// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness builds the system with the configuration
// and orchestration layers, runs it, and prints rows/series shaped like the
// paper's. EXPERIMENTS.md records paper-vs-measured for each.
//
// Every harness accepts Options.Scale to shrink simulated durations (and,
// where applicable, topology size) so the whole suite runs quickly
// (`splitsim run all -scale 0.1`); Scale=1 reproduces the paper-scale
// configuration.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/orch"
	"repro/internal/sim"
)

// Options tunes experiment scale and seeding.
type Options struct {
	// Scale multiplies simulated durations (1.0 = paper-scale defaults;
	// tests use ~0.1).
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// Placement selects the execution placement for experiments that honor
	// it (the placement study accepts s/ac/cr2/rs/auto; fig7 and fig8 fold
	// their model predictions under s/percomp/auto). Empty keeps each
	// experiment's default.
	Placement string
	// CheckpointAt overrides the warmup horizon for experiments that
	// checkpoint (warmstart). Zero keeps the experiment's default.
	CheckpointAt sim.Time
	// CheckpointFile, when set, persists the captured checkpoint bytes.
	CheckpointFile string
	// RestoreFile, when set, resumes from a previously saved checkpoint
	// instead of simulating the warmup prefix.
	RestoreFile string
	// Hosts overrides the scale experiments' fabric size with a target
	// endpoint count (e.g. 1000000). Zero keeps the Scale-derived fabric.
	// Large targets (≥200k) switch the generator to default-up routing
	// and denser leaves so switch count and route state stay tractable.
	Hosts int
	// Bg selects a background-traffic tier for the scale experiment:
	// "" (none) or "flow" (the flow-level fluid tier over every host
	// slot, coupled to the packet-level foreground at shared links).
	Bg string
}

// Experiment is one row of the experiment table: what `splitsim` lists,
// validates, runs and plans.
type Experiment struct {
	Name string
	// Run executes the experiment and renders its result.
	Run func(Options) (string, error)
	// Placements lists the -placement values Run accepts (nil: none).
	Placements []string
	// plan builds the system PlanFor renders (nil: no plan).
	plan func(Options) *scenario
}

// Plannable reports whether PlanFor renders the experiment's plan.
func (e Experiment) Plannable() bool { return e.plan != nil }

// Experiments returns the experiment table, sorted by name.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "ablations", Run: func(o Options) (string, error) {
			return TrunkAblation(o).String() + "\n" + SyncQuantumAblation(o).String(), nil
		}},
		{Name: "clocksync", Run: render(infallible(ClockSync))},
		{Name: "configeffort", Run: render(func(Options) (*ConfigEffortResult, error) { return ConfigEffort(".") })},
		{Name: "fig10", Run: render(infallible(Fig10))},
		{Name: "fig4", Run: render(infallible(Fig4))},
		{Name: "fig5", Run: render(infallible(Fig5))},
		{Name: "fig6", Run: render(infallible(Fig6))},
		{Name: "fig7", Run: render(infallible(Fig7)), Placements: modelPlacements,
			plan: func(o Options) *scenario { sc, _ := fig7Build(8, o); return sc }},
		{Name: "fig8", Run: render(infallible(Fig8)), Placements: modelPlacements,
			plan: func(o Options) *scenario { sc, _ := fig8Build(16, o); return sc }},
		{Name: "fig9", Run: render(infallible(Fig9))},
		{Name: "flowsim", Run: render(Flowsim)},
		{Name: "placement", Run: render(PlacementStudy), Placements: PlacementNames(),
			plan: func(o Options) *scenario { sc, _ := buildPlacementStudy(o); return sc }},
		{Name: "profoverhead", Run: render(infallible(ProfilerOverhead))},
		{Name: "scale", Run: render(infallible(Scale))},
		{Name: "scaleout", Run: render(ScaleOut)},
		{Name: "table1", Run: func(Options) (string, error) { return Table1(), nil }},
		{Name: "warmstart", Run: render(WarmStart)},
	}
}

// Lookup returns the named row of the experiment table.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// render adapts a harness to Experiment.Run.
func render[R fmt.Stringer](f func(Options) (R, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		r, err := f(o)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}
}

// infallible adapts a harness that cannot fail to render.
func infallible[R any](f func(Options) R) func(Options) (R, error) {
	return func(o Options) (R, error) { return f(o), nil }
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// Dur scales a base duration, clamping to a floor so heavily scaled-down
// runs still produce meaningful statistics.
func (o Options) Dur(base, floor sim.Time) sim.Time {
	d := sim.Time(float64(base) * o.scale())
	if d < floor {
		return floor
	}
	return d
}

// checkDrained panics when a finished run left pooled frames checked out —
// a leak on the zero-alloc packet path. Every harness calls it after its
// run, so the whole evaluation doubles as a pool-ownership audit.
func checkDrained(s *orch.Simulation) {
	if n := s.LiveFrames(); n != 0 {
		panic(fmt.Sprintf("experiments: %d pooled frames still live after run", n))
	}
}

// stopwatch measures harness wall time.
type stopwatch struct{ start time.Time }

func newStopwatch() stopwatch   { return stopwatch{start: time.Now()} }
func (s stopwatch) ms() float64 { return float64(time.Since(s.start).Microseconds()) / 1000 }
