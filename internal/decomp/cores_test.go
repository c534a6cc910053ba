package decomp

import (
	"testing"

	"repro/internal/sim"
)

// TestRecommendPlacementRespectsCoreCap reruns the bottleneck-split
// scenario with a core budget equal to the current group count: splitting
// past the physical cores can't add parallelism, so the recommender must
// leave the bottleneck group alone instead of splitting it.
func TestRecommendPlacementRespectsCoreCap(t *testing.T) {
	comps, links := placementModel()
	cur := Placement{Name: "x", Groups: []int{0, 0, 1, 1}}
	merged, mlinks, err := MergePlacement(comps, links, cur)
	if err != nil {
		t.Fatal(err)
	}
	a := ModeledAnalysis(merged, mlinks, DefaultParams(sim.Time(1e9)))

	// Sanity: with no cap the bottleneck splits (the companion test pins
	// this); with 2 cores it must not.
	next := RecommendPlacement(cur, comps, links, a, 2)
	if g := next.NumGroups(); g > 2 {
		t.Fatalf("recommender split past the 2-core budget: %v (%d groups)", next.Groups, g)
	}
}

// TestAutoPlaceInheritsParamsCores checks that a core budget carried in
// Params (as HostParams sets it) caps AutoPlace's recommender steps.
func TestAutoPlaceInheritsParamsCores(t *testing.T) {
	comps, links := placementModel()
	params := DefaultParams(sim.Time(1e9))
	params.Cores = 2
	p := AutoPlace(comps, links, params)
	if g := p.NumGroups(); g > 2 {
		t.Fatalf("AutoPlace produced %d groups on a 2-core budget: %v", g, p.Groups)
	}
	if _, err := p.Normalized(len(comps)); err != nil {
		t.Fatal(err)
	}
}

// TestHostParams pins the host-tuning arithmetic: cores and the measured
// sync price replace the calibrated constants, the message price scales in
// proportion, and degenerate measurements keep the defaults.
func TestHostParams(t *testing.T) {
	d := sim.Millisecond
	def := DefaultParams(d)

	p := HostParams(d, 8, 2*def.SyncCostNs)
	if p.Cores != 8 {
		t.Errorf("Cores = %d, want 8", p.Cores)
	}
	if p.SyncCostNs != 2*def.SyncCostNs {
		t.Errorf("SyncCostNs = %v, want %v", p.SyncCostNs, 2*def.SyncCostNs)
	}
	if p.MsgCostNs != 2*def.MsgCostNs {
		t.Errorf("MsgCostNs = %v, want scaled %v", p.MsgCostNs, 2*def.MsgCostNs)
	}

	q := HostParams(d, 0, 0)
	if q.Cores != def.Cores || q.SyncCostNs != def.SyncCostNs || q.MsgCostNs != def.MsgCostNs {
		t.Errorf("degenerate inputs should keep defaults: %+v vs %+v", q, def)
	}
}
