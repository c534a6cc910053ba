package stats

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(sim.Time(i) * sim.Microsecond)
	}
	if got := l.Percentile(50); got != 50*sim.Microsecond {
		t.Errorf("p50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*sim.Microsecond {
		t.Errorf("p99 = %v", got)
	}
	if got := l.Percentile(100); got != 100*sim.Microsecond {
		t.Errorf("p100 = %v", got)
	}
	if got := l.Percentile(0); got != sim.Microsecond {
		t.Errorf("p0 = %v", got)
	}
	if l.Mean() != 50500*sim.Nanosecond {
		t.Errorf("mean = %v", l.Mean())
	}
	if l.Count() != 100 {
		t.Errorf("count = %d", l.Count())
	}
}

func TestEmptyLatency(t *testing.T) {
	var l Latency
	if l.Percentile(50) != 0 || l.Mean() != 0 || l.Percentile(100) != 0 || len(l.CDF(10)) != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		for _, r := range raw {
			l.Add(sim.Time(r) * sim.Nanosecond)
		}
		cdf := l.CDF(20)
		if len(cdf) != 20 {
			return false
		}
		vals := make([]int64, len(cdf))
		for i, p := range cdf {
			if p.Frac <= 0 || p.Frac > 1 {
				return false
			}
			vals[i] = int64(p.Value)
		}
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) ||
			isNonDecreasing(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func isNonDecreasing(v []int64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		for _, r := range raw {
			l.Add(sim.Time(r))
		}
		p := float64(pRaw%100) + 1
		v := l.Percentile(p)
		return v >= l.Percentile(0) && v <= l.Percentile(100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRates(t *testing.T) {
	if Rate(1000, sim.Second) != 1000 {
		t.Error("Rate")
	}
	if Throughput(125, sim.Second) != 1000 {
		t.Error("Throughput")
	}
	if Rate(5, 0) != 0 || Throughput(5, 0) != 0 {
		t.Error("zero duration should not divide")
	}
}

func TestFormatting(t *testing.T) {
	if FmtRate(2_500_000) != "2.50Mop/s" {
		t.Errorf("FmtRate = %s", FmtRate(2_500_000))
	}
	if FmtRate(1500) != "1.5kop/s" || FmtRate(10) != "10op/s" {
		t.Error("FmtRate small values")
	}
	if FmtBps(9.64e9) != "9.64Gbps" || FmtBps(3.2e6) != "3.2Mbps" {
		t.Errorf("FmtBps: %s %s", FmtBps(9.64e9), FmtBps(3.2e6))
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("config", "tput", "lat")
	tb.Row("ns3", "1.2M", "7us")
	tb.Row("end-to-end", "800k", "600us")
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "config") || !strings.Contains(lines[3], "end-to-end") {
		t.Fatalf("bad table:\n%s", s)
	}
}

func TestReservoirBoundsRetention(t *testing.T) {
	l := NewReservoir(100, 7)
	for i := 0; i < 10_000; i++ {
		l.Add(sim.Time(i))
	}
	if l.Count() != 10_000 {
		t.Fatalf("Count = %d, want 10000 (observations, not retention)", l.Count())
	}
	if n := len(l.samples); n != 100 {
		t.Fatalf("retained %d samples, want 100", n)
	}
	// A uniform sample of 0..9999 should have a median near 5000.
	if p50 := l.Percentile(50); p50 < 3000 || p50 > 7000 {
		t.Fatalf("reservoir median %v far from 5000", p50)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(50, 3), NewReservoir(50, 3)
	for i := 0; i < 1000; i++ {
		a.Add(sim.Time(i * 7))
		b.Add(sim.Time(i * 7))
	}
	if a.Mean() != b.Mean() || a.Percentile(99) != b.Percentile(99) {
		t.Fatal("same seed produced different reservoirs")
	}
}

func TestReservoirMergePreservesCounts(t *testing.T) {
	a := NewReservoir(64, 1)
	b := NewReservoir(64, 2)
	for i := 0; i < 500; i++ {
		a.Add(sim.Time(i))
		b.Add(sim.Time(1000 + i))
	}
	a.Merge(b)
	if a.Count() != 1000 {
		t.Fatalf("merged Count = %d, want 1000", a.Count())
	}
	if n := len(a.samples); n != 64 {
		t.Fatalf("merged retained %d samples, want 64", n)
	}

	// Unbounded merge keeps every sample.
	var u, v Latency
	u.Add(1)
	v.Add(2)
	v.Add(3)
	u.Merge(&v)
	if u.Count() != 3 || len(u.samples) != 3 {
		t.Fatalf("unbounded merge count=%d retained=%d, want 3/3", u.Count(), len(u.samples))
	}
}
