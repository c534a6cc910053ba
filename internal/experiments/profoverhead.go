package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ProfilerOverheadResult measures what the always-on profiler costs — the
// experiment the paper sketches but defers ("could add another quick
// experiment with the profiler overhead"). We run the same coupled
// simulation with and without the collector attached and compare wall
// time; the instrumentation itself (counter increments in the adapters)
// is compiled in either way, as in SimBricks' #define-guarded builds, so
// the measured delta is the sampling and aggregation cost.
type ProfilerOverheadResult struct {
	BaseMs     float64
	ProfiledMs float64
	Overhead   float64 // fraction
	Samples    int
}

// String renders the measurement.
func (r *ProfilerOverheadResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: profiler overhead (coupled fat-tree run)\n")
	t := stats.NewTable("configuration", "wall-ms")
	t.Row("profiling off", fmt.Sprintf("%.1f", r.BaseMs))
	t.Row(fmt.Sprintf("profiling on (%d samples)", r.Samples), fmt.Sprintf("%.1f", r.ProfiledMs))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "overhead: %.1f%% of wall time\n", r.Overhead*100)
	return b.String()
}

// profOverheadRun builds a partitioned fat tree and runs it coupled,
// optionally profiled, returning wall ms and sample count.
func profOverheadRun(opts Options, profile bool) (float64, int) {
	dur := opts.Dur(10*sim.Millisecond, 4*sim.Millisecond)
	s, b := fatTree(4, 4, opts.Seed)
	pairs := make([][2]*netsim.Host, len(b.Hosts)/2)
	for i := range pairs {
		pairs[i] = [2]*netsim.Host{b.Hosts[i], b.Hosts[len(pairs)+i]}
	}
	bulkTraffic(pairs, 8900, 2e9, false, nil)
	var col *profiler.Collector
	if profile {
		col = profiler.NewCollector()
		s.PreRun = func(g *link.Group) { col.Attach(g, 100*sim.Microsecond) }
	}
	start := time.Now()
	if err := s.RunCoupled(dur); err != nil {
		panic(err)
	}
	checkDrained(s)
	ms := float64(time.Since(start).Microseconds()) / 1000
	n := 0
	if col != nil {
		n = len(col.Samples())
	}
	return ms, n
}

// ProfilerOverhead measures the profiler's cost. A discarded warm-up run
// precedes measurement, and the two configurations alternate with the
// minimum of three runs each, damping scheduler and cache noise.
func ProfilerOverhead(opts Options) *ProfilerOverheadResult {
	profOverheadRun(opts, false) // warm up caches and the runtime

	var base, prof float64
	samples := 0
	for i := 0; i < 3; i++ {
		if ms, _ := profOverheadRun(opts, false); i == 0 || ms < base {
			base = ms
		}
		ms, n := profOverheadRun(opts, true)
		if i == 0 || ms < prof {
			prof = ms
		}
		if n > samples {
			samples = n
		}
	}
	r := &ProfilerOverheadResult{BaseMs: base, ProfiledMs: prof, Samples: samples}
	if base > 0 {
		r.Overhead = prof/base - 1
	}
	return r
}
