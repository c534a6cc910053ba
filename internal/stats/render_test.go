package stats

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCDFAgreesWithPercentile pins the CDF/Percentile consistency contract:
// for every evenly spaced fraction, the CDF point must carry exactly the
// value Percentile returns for that fraction, including at float-rounding
// boundaries.
func TestCDFAgreesWithPercentile(t *testing.T) {
	for _, tc := range []struct{ samples, points int }{
		{10, 10},
		{10, 4},
		{7, 7},
		{100, 33},
		// 15/22*22 computes as 14.999999999999998: truncation used to
		// select rank 13 where the nearest-rank rule selects rank 14.
		{22, 22},
		{1, 5},
	} {
		var l Latency
		for i := 0; i < tc.samples; i++ {
			l.Add(sim.Time(1000 * (i + 1)))
		}
		cdf := l.CDF(tc.points)
		if len(cdf) != tc.points {
			t.Fatalf("CDF(%d) on %d samples: got %d points", tc.points, tc.samples, len(cdf))
		}
		for _, pt := range cdf {
			want := l.Percentile(pt.Frac * 100)
			if pt.Value != want {
				t.Errorf("samples=%d points=%d frac=%v: CDF value %v != Percentile %v",
					tc.samples, tc.points, pt.Frac, pt.Value, want)
			}
		}
		// The final point must be the maximum.
		if cdf[len(cdf)-1].Value != l.Percentile(100) {
			t.Errorf("samples=%d points=%d: last CDF value %v != max %v",
				tc.samples, tc.points, cdf[len(cdf)-1].Value, l.Percentile(100))
		}
	}
}

// TestCDFBoundaryRank pins the specific float-rounding case: rank 15 of 22.
func TestCDFBoundaryRank(t *testing.T) {
	var l Latency
	for i := 1; i <= 22; i++ {
		l.Add(sim.Time(i))
	}
	cdf := l.CDF(22)
	// Point 15 (f = 15/22) must be the 15th smallest sample, not the 14th.
	if got := cdf[14].Value; got != 15 {
		t.Fatalf("CDF point at f=15/22 = %v, want 15", got)
	}
}

// TestTableOverflowColumns renders rows wider than the header: every
// overflow cell must get its own column width and the separator must span
// all columns.
func TestTableOverflowColumns(t *testing.T) {
	tb := NewTable("name", "val")
	tb.Row("a", 1, "extra-wide-overflow", 7)
	tb.Row("bb", 22, "x", 88888)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	sep := lines[1]
	// Separator spans all four columns: four dash runs.
	if got := len(strings.Fields(sep)); got != 4 {
		t.Fatalf("separator has %d runs, want 4:\n%s", got, out)
	}
	// Cells of one column start at the same offset in every row.
	row1, row2 := lines[2], lines[3]
	if strings.Index(row1, "extra-wide-overflow") != strings.Index(row2, "x") {
		t.Fatalf("overflow column misaligned:\n%s", out)
	}
	if strings.Index(row1, "7") != strings.Index(row2, "88888") {
		t.Fatalf("final overflow column misaligned:\n%s", out)
	}
	// Separator dashes must be at least as wide as the widest cell of the
	// column they span.
	fields := strings.Fields(sep)
	if len(fields[2]) < len("extra-wide-overflow") {
		t.Fatalf("separator run %q narrower than widest cell:\n%s", fields[2], out)
	}
}

// TestTableHeaderOnlyUnchanged guards the common no-overflow rendering.
func TestTableHeaderOnlyUnchanged(t *testing.T) {
	tb := NewTable("col-one", "c2")
	tb.Row("x", "y")
	out := tb.String()
	if !strings.HasPrefix(out, "col-one  c2") {
		t.Fatalf("header row changed:\n%s", out)
	}
	if !strings.Contains(out, "-------  --") {
		t.Fatalf("separator changed:\n%s", out)
	}
}
