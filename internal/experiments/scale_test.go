package experiments

import (
	"strings"
	"testing"
)

// TestScaleSmoke is the fast `make scale` gate: a small fat-tree-class
// Clos (Scale well below 1 floors at 4 pods) must complete incast and
// shuffle flows with zero frame leaks (checkDrained panics inside Scale
// otherwise) and O(pods) routing state.
func TestScaleSmoke(t *testing.T) {
	opts := Options{Scale: 0.01, Seed: 3}
	r := Scale(opts)
	if r.Pods != 4 {
		t.Fatalf("Pods = %d, want floor 4", r.Pods)
	}
	if r.Hosts != 4*32*32 {
		t.Fatalf("Hosts = %d, want 4096", r.Hosts)
	}
	if r.MaxEntries > r.Pods+32+2 {
		t.Fatalf("max routing entries %d not O(pods)", r.MaxEntries)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %d, want incast + shuffle", len(r.Phases))
	}
	for _, p := range r.Phases {
		if p.Completed == 0 {
			t.Fatalf("%s: no flows completed", p.Name)
		}
		if p.SimPkts == 0 {
			t.Fatalf("%s: no packets moved", p.Name)
		}
		if p.FCTMean <= 0 {
			t.Fatalf("%s: non-positive mean FCT %v", p.Name, p.FCTMean)
		}
	}
	out := r.String()
	if !strings.Contains(out, "incast") || !strings.Contains(out, "shuffle") {
		t.Fatalf("render missing phases:\n%s", out)
	}
	checkGolden(t, "scale", scaleWallFree(r))
}

// TestScaleMixedSmoke runs the scale phases with the flow-level background
// tier active: elephants must occupy the fabric for the price of a handful
// of scheduler events while the packet-level foreground still completes.
func TestScaleMixedSmoke(t *testing.T) {
	r := Scale(Options{Scale: 0.01, Seed: 3, Bg: "flow"})
	for _, p := range r.Phases {
		if p.Completed == 0 {
			t.Fatalf("%s: no foreground flows completed under background load", p.Name)
		}
		if p.BgFlows == 0 || p.BgEvents == 0 {
			t.Fatalf("%s: background tier idle (flows=%d events=%d)", p.Name, p.BgFlows, p.BgEvents)
		}
		if p.BgProjPktEvents < 10*p.BgEvents {
			t.Fatalf("%s: background spent %d events vs %d projected — want ≥10×",
				p.Name, p.BgEvents, p.BgProjPktEvents)
		}
	}
	if !strings.Contains(r.String(), "background") {
		t.Fatalf("render missing background line:\n%s", r.String())
	}
	checkGolden(t, "scale -bg flow", scaleWallFree(r))
}

// TestScaleSpecHostsTarget pins the -hosts derivation: a million-endpoint
// target must cross 10⁶ slots with default-up routing and dense leaves.
func TestScaleSpecHostsTarget(t *testing.T) {
	spec := scaleSpec(Options{Hosts: 1_000_000})
	if got := spec.Pods * spec.LeafPerPod * spec.HostsPerLeaf; got < 1_000_000 {
		t.Fatalf("spec yields %d slots, want ≥ 1e6", got)
	}
	if !spec.DefaultUp || spec.HostsPerLeaf != 64 {
		t.Fatalf("million-endpoint spec not densified: DefaultUp=%v HostsPerLeaf=%d",
			spec.DefaultUp, spec.HostsPerLeaf)
	}
	small := scaleSpec(Options{Hosts: 8_000})
	if small.DefaultUp || small.Pods != 8 {
		t.Fatalf("small target mis-derived: DefaultUp=%v Pods=%d", small.DefaultUp, small.Pods)
	}
}

// TestFlowsimSmoke: the mixed-fidelity figure at tiny scale — foreground
// p99 must degrade monotonically from idle to 90% background occupancy,
// with the fluid tier's event bill at least 10× under the packet
// projection.
func TestFlowsimSmoke(t *testing.T) {
	r, err := Flowsim(Options{Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}
	checkGolden(t, "flowsim", r.String())
	idle, loaded := r.Points[0], r.Points[len(r.Points)-1]
	if idle.FgCompleted == 0 || loaded.FgCompleted == 0 {
		t.Fatal("foreground idle in some point")
	}
	if loaded.FgFCTP99 <= idle.FgFCTP99 {
		t.Fatalf("background occupancy did not degrade foreground p99: idle %v, loaded %v",
			idle.FgFCTP99, loaded.FgFCTP99)
	}
	for _, p := range r.Points[1:] {
		if p.BgEvents == 0 || p.BgProjPkt < 10*p.BgEvents {
			t.Fatalf("load %.0f%%: events=%d proj=%d — want ≥10×", p.Load*100, p.BgEvents, p.BgProjPkt)
		}
	}
}
