package decomp

import (
	"testing"

	"repro/internal/sim"
)

func TestPlacementNormalized(t *testing.T) {
	p := Placement{Name: "x", Groups: []int{7, 2, 7, 9, 2}}
	n, err := p.Normalized(5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 2, 1}
	for i, g := range n.Groups {
		if g != want[i] {
			t.Fatalf("normalized = %v, want %v", n.Groups, want)
		}
	}
	if n.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", n.NumGroups())
	}
	if _, err := p.Normalized(4); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := (Placement{Groups: []int{0, -1}}).Normalized(2); err == nil {
		t.Fatal("negative group not rejected")
	}
}

func TestPlacementKeyCanonical(t *testing.T) {
	a := Placement{Groups: []int{5, 5, 1, 3}}
	b := Placement{Groups: []int{0, 0, 8, 2}}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent placements key differently: %q vs %q", a.Key(), b.Key())
	}
	c := Placement{Groups: []int{0, 1, 1, 2}}
	if a.Key() == c.Key() {
		t.Fatalf("distinct placements share key %q", a.Key())
	}
}

func TestGroupLabels(t *testing.T) {
	p, err := Placement{Groups: []int{0, 1, 0, 2, 0}}.Normalized(5)
	if err != nil {
		t.Fatal(err)
	}
	labels := p.GroupLabels([]string{"h0", "h1", "h2", "h3", "h4"})
	want := []string{"h0+2", "h1", "h3"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestCoarsen(t *testing.T) {
	// 6 switches: fine = rs-style per-unit-ish partition, coarse = 2 groups.
	fine := []int{0, 0, 1, 2, 2, 3}
	coarse := []int{0, 0, 0, 1, 1, 1}
	got, err := Coarsen(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Coarsen = %v, want %v", got, want)
		}
	}
	// Fine part 1 spans both coarse groups: not a refinement.
	if _, err := Coarsen([]int{0, 1, 1}, []int{0, 0, 1}); err == nil {
		t.Fatal("non-refinement not rejected")
	}
	if _, err := Coarsen([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	// Fine part 0 missing (parts 1,2 only → part 0 empty after max scan).
	if _, err := Coarsen([]int{1, 2}, []int{0, 0}); err == nil {
		t.Fatal("empty fine part not rejected")
	}
}

func placementModel() ([]Comp, []Link) {
	comps := []Comp{
		{Name: "hot", BusyNs: 9e9},
		{Name: "idle0", BusyNs: 1e8},
		{Name: "idle1", BusyNs: 1e8},
		{Name: "idle2", BusyNs: 1e8},
	}
	links := []Link{
		{A: 0, B: 1, Msgs: 1000, Quantum: 500},
		{A: 0, B: 2, Msgs: 1000, Quantum: 500},
		{A: 1, B: 2, Msgs: 200, Quantum: 500},
		{A: 2, B: 3, Msgs: 200, Quantum: 500},
	}
	return comps, links
}

func TestMergePlacement(t *testing.T) {
	comps, links := placementModel()
	p := Placement{Name: "two", Groups: []int{0, 1, 1, 1}}
	mc, ml, err := MergePlacement(comps, links, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) != 2 {
		t.Fatalf("merged comps = %d, want 2", len(mc))
	}
	if mc[0].Name != "hot" || mc[1].Name != "idle0+2" {
		t.Fatalf("merged names = %q, %q", mc[0].Name, mc[1].Name)
	}
	if mc[1].BusyNs != 3e8 {
		t.Fatalf("merged busy = %g, want 3e8", mc[1].BusyNs)
	}
	// idle0-idle1 and idle1-idle2 links are intra-group and vanish; hot-idle0
	// and hot-idle1 cross the one cut at one quantum and fold into one link.
	want := []Link{{A: 0, B: 1, Msgs: 2000, Quantum: 500}}
	if !equalLinks(ml, want) {
		t.Fatalf("merged links = %+v, want %+v", ml, want)
	}
}

// TestMergePlacementFoldsByCutAndQuantum: cross-group links fold into one
// only when they share both the group pair (in either orientation) and the
// quantum — the key the executor bundles channels by.
func TestMergePlacementFoldsByCutAndQuantum(t *testing.T) {
	comps, _ := placementModel()
	links := []Link{
		{A: 0, B: 2, Msgs: 10, Quantum: 500},
		{A: 3, B: 1, Msgs: 20, Quantum: 500}, // same cut, reversed
		{A: 1, B: 2, Msgs: 40, Quantum: 700}, // same cut, other quantum
		{A: 0, B: 1, Msgs: 80, Quantum: 500}, // intra-group
	}
	p := Placement{Name: "blocked", Groups: []int{0, 0, 1, 1}}
	_, ml, err := MergePlacement(comps, links, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{
		{A: 0, B: 1, Msgs: 30, Quantum: 500},
		{A: 0, B: 1, Msgs: 40, Quantum: 700},
	}
	if !equalLinks(ml, want) {
		t.Fatalf("merged links = %+v, want %+v", ml, want)
	}
}

func equalLinks(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecommendPlacementMergesIdlePair(t *testing.T) {
	comps, links := placementModel()
	cur := PerComponent(len(comps))
	merged, mlinks, err := MergePlacement(comps, links, cur)
	if err != nil {
		t.Fatal(err)
	}
	a := ModeledAnalysis(merged, mlinks, DefaultParams(sim.Time(1e9)))
	next := RecommendPlacement(cur, comps, links, a, 0)
	if next.NumGroups() >= cur.NumGroups() {
		t.Fatalf("idle neighbors not merged: %v -> %v", cur.Groups, next.Groups)
	}
	// The hot component must keep its own group.
	hot := next.Groups[0]
	for i := 1; i < len(next.Groups); i++ {
		if next.Groups[i] == hot {
			t.Fatalf("hot component co-located with idle %d: %v", i, next.Groups)
		}
	}
}

func TestRecommendPlacementSplitsBottleneck(t *testing.T) {
	comps, links := placementModel()
	// Everything co-located with the hot comp: the single group is the
	// bottleneck... except a 1-group placement has no cross links, so use a
	// 2-group split where one group holds hot+idle0 and is clearly limiting.
	cur := Placement{Name: "x", Groups: []int{0, 0, 1, 1}}
	merged, mlinks, err := MergePlacement(comps, links, cur)
	if err != nil {
		t.Fatal(err)
	}
	a := ModeledAnalysis(merged, mlinks, DefaultParams(sim.Time(1e9)))
	next := RecommendPlacement(cur, comps, links, a, 0)
	// The hot group (wait ~0) should split: hot and idle0 end up apart.
	if next.Groups[0] == next.Groups[1] {
		t.Fatalf("bottleneck group not split: %v", next.Groups)
	}
}

func TestAutoPlaceTerminatesAndIsolatesHotComponent(t *testing.T) {
	comps, links := placementModel()
	p := AutoPlace(comps, links, DefaultParams(sim.Time(1e9)))
	if _, err := p.Normalized(len(comps)); err != nil {
		t.Fatalf("AutoPlace returned invalid placement: %v", err)
	}
	if p.Name != "auto" {
		t.Fatalf("Name = %q, want auto", p.Name)
	}
	if g := p.NumGroups(); g < 1 || g > len(comps) {
		t.Fatalf("NumGroups = %d out of range", g)
	}
	// Deterministic: same inputs, same placement.
	q := AutoPlace(comps, links, DefaultParams(sim.Time(1e9)))
	if p.Key() != q.Key() {
		t.Fatalf("AutoPlace nondeterministic: %q vs %q", p.Key(), q.Key())
	}
}
