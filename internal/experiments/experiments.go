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
	// Exec selects how placed runs execute: Mode picks conservative
	// (Parallel, the zero value: one sync exchange per lookahead window) or
	// optimistic (speculation past the conservative sync horizons with
	// per-group snapshot/rollback) execution, K the speculation ceiling.
	// Results are bit-identical under every choice; only wall-clock
	// measurements change.
	Exec orch.RunOptions
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
	// Bg selects a background-traffic tier for the scale experiments:
	// "" (none) or "flow" (the flow-level fluid tier over every host
	// slot, coupled to the packet-level foreground at shared links).
	Bg string
}

// DefaultOptions returns paper-scale settings.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 42} }

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
