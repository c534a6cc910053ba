// Package stats provides the small statistics toolkit the experiment
// harnesses use: latency recorders with percentiles and CDFs, throughput
// counters, and formatting helpers for paper-style result rows.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Latency records latency samples and answers distribution queries. The
// zero value retains every sample; NewReservoir bounds retention with
// uniform reservoir sampling so million-flow workloads don't hold a
// million samples.
type Latency struct {
	samples []sim.Time
	sorted  bool

	// Reservoir state (Vitter's Algorithm R). cap == 0 means unbounded.
	cap  int
	seen uint64
	rng  *sim.Rand
}

// NewReservoir creates a bounded recorder keeping a uniform sample of at
// most capacity values. Replacement decisions come from a deterministic
// seeded generator, so runs are reproducible.
func NewReservoir(capacity int, seed uint64) *Latency {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	return &Latency{cap: capacity, rng: sim.NewRand(seed)}
}

// Add records one sample. On a bounded recorder past capacity, the sample
// replaces a uniformly random retained one with probability cap/seen.
func (l *Latency) Add(d sim.Time) {
	l.seen++
	if l.cap == 0 || len(l.samples) < l.cap {
		l.samples = append(l.samples, d)
		l.sorted = false
		return
	}
	if j := l.rng.Int63n(int64(l.seen)); j < int64(l.cap) {
		l.samples[j] = d
		l.sorted = false
	}
}

// Count returns the number of samples observed (not retained: on a bounded
// recorder this keeps counting past capacity).
func (l *Latency) Count() int {
	if l.cap != 0 {
		return int(l.seen)
	}
	return len(l.samples)
}

// Sampled returns the number of samples actually retained, which the
// distribution queries are computed over.
func (l *Latency) Sampled() int { return len(l.samples) }

// Merge folds o's retained samples into l (and o's observation count into
// l's). Merging bounded recorders approximates a reservoir over the union:
// each retained sample of o passes through l's replacement rule.
func (l *Latency) Merge(o *Latency) {
	extra := uint64(0)
	if o.cap != 0 {
		extra = o.seen - uint64(len(o.samples)) // observed but not retained
	}
	for _, s := range o.samples {
		l.Add(s)
	}
	l.seen += extra
}

func (l *Latency) sortSamples() {
	if !l.sorted {
		slices.Sort(l.samples)
		l.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank.
func (l *Latency) Percentile(p float64) sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	rank := int(math.Ceil(p/100*float64(len(l.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

// Mean returns the arithmetic mean.
func (l *Latency) Mean() sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range l.samples {
		sum += s
	}
	return sum / sim.Time(len(l.samples))
}

// Min and Max return the extremes.
func (l *Latency) Min() sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	return l.samples[0]
}

// Max returns the largest sample.
func (l *Latency) Max() sim.Time {
	if len(l.samples) == 0 {
		return 0
	}
	l.sortSamples()
	return l.samples[len(l.samples)-1]
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value sim.Time
	Frac  float64
}

// CDF returns n evenly spaced quantile points, suitable for plotting the
// paper's latency CDFs. Each point's value is the nearest-rank quantile —
// the same rule Percentile uses — so CDF(n)[i] always equals
// Percentile(100*(i+1)/n) for the same fraction. Truncating instead of
// rounding up here used to pick one rank lower whenever f*N landed just
// under an integer (float rounding, e.g. 0.3*10 = 2.9999999999999996).
func (l *Latency) CDF(n int) []CDFPoint {
	if len(l.samples) == 0 || n <= 0 {
		return nil
	}
	l.sortSamples()
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		idx := int(math.Ceil(f*float64(len(l.samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(l.samples) {
			idx = len(l.samples) - 1
		}
		out = append(out, CDFPoint{Value: l.samples[idx], Frac: f})
	}
	return out
}

// Summary renders "mean/p50/p99/max".
func (l *Latency) Summary() string {
	return fmt.Sprintf("mean=%v p50=%v p99=%v max=%v",
		l.Mean(), l.Percentile(50), l.Percentile(99), l.Max())
}

// Rate converts a count over a duration into an operations/second value.
func Rate(count int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(count) / d.Seconds()
}

// Throughput converts bytes over a duration into bits/second.
func Throughput(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds()
}

// FmtRate renders an ops/s figure compactly.
func FmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fMop/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fkop/s", r/1e3)
	default:
		return fmt.Sprintf("%.0fop/s", r)
	}
}

// FmtBps renders a bits/second figure compactly.
func FmtBps(r float64) string {
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.2fGbps", r/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.1fMbps", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fkbps", r/1e3)
	default:
		return fmt.Sprintf("%.0fbps", r)
	}
}

// Table accumulates aligned text rows for paper-style output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(cols ...string) *Table { return &Table{header: cols} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = fmt.Sprint(v)
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns. Rows may carry more cells
// than there are headers; overflow columns get their own widths and the
// separator row spans them.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
