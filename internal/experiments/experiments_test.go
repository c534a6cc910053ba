package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The experiment tests assert the paper's qualitative claims (who wins, by
// roughly what factor, where crossovers fall) at reduced scale; `splitsim
// run` regenerates the full tables. Heavy cases honor -short.

func TestFig4OppositeTrends(t *testing.T) {
	r := Fig4(Options{Scale: 0.4, Seed: 42})
	checkGolden(t, "fig4", r.String())

	// Protocol-level: NetCache ahead (paper: +33%).
	nc, pg := r.Get(SystemNetCache, ConfigNS3), r.Get(SystemPegasus, ConfigNS3)
	if ratio := nc.Tput / pg.Tput; ratio < 1.05 {
		t.Errorf("protocol-level NetCache/Pegasus = %.2f, want > 1.05", ratio)
	}
	// End-to-end: Pegasus ahead decisively (paper: +47%).
	nc, pg = r.Get(SystemNetCache, ConfigE2E), r.Get(SystemPegasus, ConfigE2E)
	if ratio := pg.Tput / nc.Tput; ratio < 1.25 {
		t.Errorf("end-to-end Pegasus/NetCache = %.2f, want > 1.25", ratio)
	}
	// Mixed fidelity tracks end-to-end for both systems.
	for _, sys := range []Fig4System{SystemNetCache, SystemPegasus} {
		e2e, mx := r.Get(sys, ConfigE2E), r.Get(sys, ConfigMixed)
		rel := mx.Tput / e2e.Tput
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%s mixed/e2e tput = %.2f, want within 10%%", sys, rel)
		}
	}
	// Core counts: 1 (ns3), 11 (e2e), 5 (mixed) — the paper's 54% saving.
	if c := r.Get(SystemNetCache, ConfigNS3).Cores; c != 1 {
		t.Errorf("ns3 cores = %d, want 1", c)
	}
	if c := r.Get(SystemNetCache, ConfigE2E).Cores; c != 11 {
		t.Errorf("e2e cores = %d, want 11", c)
	}
	if c := r.Get(SystemNetCache, ConfigMixed).Cores; c != 5 {
		t.Errorf("mixed cores = %d, want 5", c)
	}
	// Latency: end-to-end far above protocol-level under saturation.
	if e, n := r.Get(SystemPegasus, ConfigE2E).MeanLat, r.Get(SystemPegasus, ConfigNS3).MeanLat; e < 2*n {
		t.Errorf("e2e latency %v should dwarf protocol-level %v", e, n)
	}
	// Modeled simulation runtime: detailed configurations far above ns3;
	// mixed no more expensive than e2e. (The paper's additional 17% gap
	// between e2e and mixed is not reproduced — both are bound by the same
	// qemu host component in our model; see EXPERIMENTS.md.)
	e2eCost := r.Get(SystemPegasus, ConfigE2E).ModeledRunSPerSimS
	mixedCost := r.Get(SystemPegasus, ConfigMixed).ModeledRunSPerSimS
	ns3Cost := r.Get(SystemPegasus, ConfigNS3).ModeledRunSPerSimS
	if mixedCost > e2eCost*1.02 {
		t.Errorf("mixed cost %.1f should not exceed e2e %.1f", mixedCost, e2eCost)
	}
	if mixedCost < 2*ns3Cost {
		t.Errorf("mixed cost %.1f should dwarf ns3 %.1f", mixedCost, ns3Cost)
	}
	if !strings.Contains(r.String(), "Fig 4") {
		t.Error("missing render")
	}
}

func TestFig5ClientFidelity(t *testing.T) {
	r := Fig5(Options{Scale: 0.4, Seed: 42})
	checkGolden(t, "fig5", r.String())
	// Saturated: both clients measure the same distribution (within 10%).
	sat := float64(r.Get(WorkloadSaturated, "qemu").P50) /
		float64(r.Get(WorkloadSaturated, "ns3").P50)
	if sat < 0.9 || sat > 1.15 {
		t.Errorf("saturated qemu/ns3 p50 ratio = %.2f, want ~1", sat)
	}
	// Unsaturated: the qemu client measures clearly higher latency.
	uns := float64(r.Get(WorkloadUnsaturated, "qemu").P50) /
		float64(r.Get(WorkloadUnsaturated, "ns3").P50)
	if uns < 1.2 {
		t.Errorf("unsaturated qemu/ns3 p50 ratio = %.2f, want > 1.2", uns)
	}
	for _, s := range r.Series {
		if s.Samples == 0 || len(s.CDF) == 0 {
			t.Errorf("series %s/%s empty", s.Workload, s.Client)
		}
	}
}

func TestFig6MixedTracksE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: -short")
	}
	r := Fig6(Options{Scale: 0.3, Seed: 42})
	checkGolden(t, "fig6", r.String())
	for _, k := range r.Ks {
		e2e, mx := r.Get(ConfigE2E, k).Flow0, r.Get(ConfigMixed, k).Flow0
		if rel := mx / e2e; rel < 0.85 || rel > 1.15 {
			t.Errorf("K=%d: mixed/e2e = %.2f, want within 15%%", k, rel)
		}
	}
	// Protocol-level overestimates achievable throughput.
	over := 0
	for _, k := range r.Ks {
		if r.Get(ConfigNS3, k).Flow0 > 1.15*r.Get(ConfigE2E, k).Flow0 {
			over++
		}
	}
	if over < len(r.Ks)/2 {
		t.Errorf("ns-3 overestimated at only %d/%d thresholds", over, len(r.Ks))
	}
	// DCTCP with ECN avoids drops in the protocol-level runs.
	for _, k := range r.Ks {
		if k >= 16 && r.Get(ConfigNS3, k).Retransmits > 0 {
			t.Errorf("K=%d: unexpected retransmits in ns-3 config", k)
		}
	}
}

func TestClockSyncCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: -short")
	}
	r := ClockSync(Options{Scale: 0.05, Seed: 42})
	checkGolden(t, "clocksync", r.String())
	ntp, ptp := r.Get(ModeNTP), r.Get(ModePTP)
	// Bound improves by roughly an order of magnitude (paper 11us -> 943ns).
	if ntp.Bound < 5*sim.Microsecond || ntp.Bound > 50*sim.Microsecond {
		t.Errorf("NTP bound %v, want ~10us scale", ntp.Bound)
	}
	if ptp.Bound > 2*sim.Microsecond {
		t.Errorf("PTP bound %v, want ~1us scale", ptp.Bound)
	}
	if ptp.Bound*5 > ntp.Bound {
		t.Errorf("PTP bound %v should be >=5x tighter than NTP %v", ptp.Bound, ntp.Bound)
	}
	// Both disciplines actually synchronize the clock.
	if ntp.TrueErr > 20*sim.Microsecond || ptp.TrueErr > 2*sim.Microsecond {
		t.Errorf("true errors too large: ntp %v ptp %v", ntp.TrueErr, ptp.TrueErr)
	}
	// The tighter bound improves writes (paper: +38%% tput, -15%% latency).
	if ptp.WriteTput <= ntp.WriteTput {
		t.Errorf("PTP write tput %.0f should beat NTP %.0f", ptp.WriteTput, ntp.WriteTput)
	}
	if ptp.WriteP50 >= ntp.WriteP50 {
		t.Errorf("PTP write p50 %v should beat NTP %v", ptp.WriteP50, ntp.WriteP50)
	}
	// 7 detailed hosts + 7 NICs + network = 15 components.
	if ntp.Cores != 15 {
		t.Errorf("cores = %d, want 15", ntp.Cores)
	}
}

func TestFig7Parallelization(t *testing.T) {
	r := Fig7(Options{Scale: 1, Seed: 42})
	checkGolden(t, "fig7", r.String())
	// Speedup at 8 cores around 5x (paper: ~5x).
	if s := r.Get(8).Speedup; s < 3.5 || s > 7 {
		t.Errorf("8-core speedup = %.1f, want ~5", s)
	}
	// Split time grows by only ~2x from 8 to 44 cores (paper: ~2x).
	ratio := r.Get(44).SplitSPerSimS / r.Get(8).SplitSPerSimS
	if ratio < 1.3 || ratio > 3 {
		t.Errorf("44/8 split-time ratio = %.2f, want ~2", ratio)
	}
	// Sequential time grows with core count; split stays far below it.
	if r.Get(44).SeqSPerSimS <= r.Get(8).SeqSPerSimS {
		t.Error("sequential time should grow with simulated cores")
	}
	for _, p := range r.Points {
		if p.Cores > 1 && p.Speedup <= 1 {
			t.Errorf("cores=%d speedup=%.2f, want > 1", p.Cores, p.Speedup)
		}
	}
}

func TestFig8SplitSimBeatsNative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: -short")
	}
	r := Fig8(Options{Scale: 0.3, Seed: 42})
	checkGolden(t, "fig8", r.String())
	best := 0.0
	for _, p := range r.Points {
		if p.Parts == 1 {
			continue
		}
		if p.SplitSimS >= p.NativeS {
			t.Errorf("%s parts=%d: SplitSim %.1f should beat native %.1f",
				p.Flavor, p.Parts, p.SplitSimS, p.NativeS)
		}
		if p.Reduction > best {
			best = p.Reduction
		}
	}
	// Paper: up to 57% lower simulation time.
	if best < 0.35 || best > 0.70 {
		t.Errorf("max reduction = %.0f%%, want roughly 40-60%%", best*100)
	}
}

func TestFig9PartitionStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: -short")
	}
	opts := Options{Scale: 0.08, Seed: 42}
	r := Fig9(opts)
	checkGolden(t, "fig9", r.String())
	// Partitioning helps: every strategy beats "s" with qemu hosts.
	s := r.Get("s", "qemu").SimSpeed
	for _, name := range []string{"ac", "cr3", "rs"} {
		if r.Get(name, "qemu").SimSpeed <= s {
			t.Errorf("%s should beat the single-process strategy", name)
		}
	}
	// More cores does not monotonically help: cr1 (29 cores) is slower
	// than ac (9 cores).
	if r.Get("cr1", "qemu").SimSpeed >= r.Get("ac", "qemu").SimSpeed {
		t.Error("cr1 (more cores) should be slower than ac — sync overhead")
	}
	// gem5 hosts bottleneck everything: partitioning is futile.
	g5s := r.Get("s", "gem5").SimSpeed
	for _, name := range []string{"ac", "cr3", "rs"} {
		rel := r.Get(name, "gem5").SimSpeed / g5s
		if rel > 1.2 {
			t.Errorf("gem5 %s speed %.2fx of s — partitioning should not help much", name, rel)
		}
	}
	// qemu much faster than gem5 overall.
	if r.Get("ac", "qemu").SimSpeed < 5*r.Get("ac", "gem5").SimSpeed {
		t.Error("qemu configurations should be much faster than gem5")
	}
}

func TestFig10Profiles(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: -short")
	}
	r := Fig10(Options{Scale: 0.08, Seed: 42})
	checkGolden(t, "fig10", r.String())
	// ac: network partitions are among the bottlenecks, the core-only
	// partition (p0) and the NICs are not.
	foundNet := false
	for _, b := range r.ACBottlenecks {
		if strings.HasPrefix(b, "net.p") && b != "net.p0" {
			foundNet = true
		}
		if strings.Contains(b, ".nic") {
			t.Errorf("ac: NIC %s flagged as bottleneck", b)
		}
	}
	if !foundNet {
		t.Errorf("ac bottlenecks %v should include rack-carrying partitions", r.ACBottlenecks)
	}
	// DOT output is well-formed and colored.
	for _, dot := range []string{r.ACDot, r.CR3Dot} {
		if !strings.Contains(dot, "digraph wtpg") || !strings.Contains(dot, "fillcolor") {
			t.Error("malformed DOT output")
		}
	}
	if !strings.Contains(r.String(), "cr3") {
		t.Error("missing render")
	}
}

func TestTable1(t *testing.T) {
	out := Table1()
	checkGolden(t, "table1", out)
	for _, want := range []string{"SplitSim", "SimBricks", "end-to-end", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	rows := Table1Rows()
	if len(rows) != 5 || !rows[4].EndToEnd || !rows[4].Scalability || !rows[4].Fidelity {
		t.Error("SplitSim row must claim all three properties")
	}
}

func TestConfigEffort(t *testing.T) {
	r, err := ConfigEffort("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Lines < 20 {
			t.Errorf("%s: %d lines — suspiciously small", row.File, row.Lines)
		}
		if row.Lines > 600 {
			t.Errorf("%s: %d lines — configs should stay compact", row.File, row.Lines)
		}
	}
	if !strings.Contains(r.String(), "252 lines") {
		t.Error("render should cite the paper's numbers")
	}

	// From a subdirectory, "." still finds the repository root (the CLI
	// passes the working directory).
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	sub, err := ConfigEffort(".")
	if err != nil {
		t.Fatalf("ConfigEffort from a subdirectory: %v", err)
	}
	if sub.String() != r.String() {
		t.Errorf("ConfigEffort from a subdirectory differs:\n%s\nvs\n%s", sub, r)
	}
}

func TestTrunkAblation(t *testing.T) {
	r := TrunkAblation(Options{Scale: 0.1, Seed: 42})
	checkGolden(t, "ablations/trunk", r.String())
	if r.TrunkChannels != 16 || r.PerLinkChannels != 184 {
		t.Errorf("channels: trunk %d, per-link %d, want 16 and 184",
			r.TrunkChannels, r.PerLinkChannels)
	}
	if r.SavingFrac <= 0.5 {
		t.Errorf("trunking saves %.2f of modeled runtime, want > 0.5", r.SavingFrac)
	}
	if !strings.Contains(r.String(), "trunk adapters") {
		t.Error("missing render")
	}
}

func TestSyncQuantumAblation(t *testing.T) {
	r := SyncQuantumAblation(Options{Scale: 0.1, Seed: 42})
	checkGolden(t, "ablations/syncquantum", r.String())
	if len(r.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(r.Points))
	}
	// A larger quantum means fewer syncs per simulated second.
	for i := 1; i < len(r.Points); i++ {
		if prev, p := r.Points[i-1], r.Points[i]; p.SPerSimS >= prev.SPerSimS {
			t.Errorf("quantum x%.2f: %.2f s/s, not below x%.2f's %.2f",
				p.QuantumFactor, p.SPerSimS, prev.QuantumFactor, prev.SPerSimS)
		}
	}
}

func TestProfilerOverhead(t *testing.T) {
	r := ProfilerOverhead(Options{Scale: 0.1, Seed: 42})
	if r.Samples <= 0 {
		t.Errorf("profiled run took %d samples", r.Samples)
	}
	if r.BaseMs <= 0 || r.ProfiledMs <= 0 {
		t.Errorf("wall times base %.1f ms, profiled %.1f ms", r.BaseMs, r.ProfiledMs)
	}
}

func TestOptionsDur(t *testing.T) {
	o := Options{Scale: 0.1}
	if d := o.Dur(100*sim.Millisecond, 20*sim.Millisecond); d != 20*sim.Millisecond {
		t.Errorf("Dur floor: %v", d)
	}
	o = Options{Scale: 2}
	if d := o.Dur(100*sim.Millisecond, 20*sim.Millisecond); d != 200*sim.Millisecond {
		t.Errorf("Dur scale: %v", d)
	}
	o = Options{}
	if d := o.Dur(100*sim.Millisecond, 20*sim.Millisecond); d != 100*sim.Millisecond {
		t.Errorf("Dur default: %v", d)
	}
}

func TestPlacementStudy(t *testing.T) {
	r, err := PlacementStudy(Options{Scale: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "placement", placementTimingFree(r))
	if len(r.Points) != len(PlacementNames()) {
		t.Fatalf("points = %d, want %d", len(r.Points), len(PlacementNames()))
	}
	for _, p := range r.Points {
		if !p.Identical {
			t.Errorf("placement %s not bit-identical to sequential", p.Placement)
		}
		if p.PredSPerSimS <= 0 || p.AcctSPerSimS <= 0 {
			t.Errorf("placement %s has non-positive makespans: pred=%g acct=%g",
				p.Placement, p.PredSPerSimS, p.AcctSPerSimS)
		}
	}
	// Fully co-located: no synchronization at all.
	if s := r.Get("s"); s.Groups != 1 || s.SyncMsgs != 0 {
		t.Errorf("s placement: groups=%d syncmsgs=%d, want 1 group with 0 syncs", s.Groups, s.SyncMsgs)
	}
	// Finest placement pays the most synchronization.
	if rs, s := r.Get("rs"), r.Get("ac"); rs.SyncMsgs <= s.SyncMsgs {
		t.Errorf("rs syncmsgs %d should exceed ac's %d", rs.SyncMsgs, s.SyncMsgs)
	}
	// Co-location trades parallelism for sync: s predicts slower than rs here.
	if s, rs := r.Get("s"), r.Get("rs"); s.PredSPerSimS <= rs.PredSPerSimS {
		t.Errorf("s pred %.2f should exceed rs pred %.2f on this busy workload",
			s.PredSPerSimS, rs.PredSPerSimS)
	}

	// Single-placement filter.
	one, err := PlacementStudy(Options{Scale: 0.5, Seed: 42, Placement: "ac"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Points) != 1 || one.Points[0].Placement != "ac" {
		t.Fatalf("filtered study = %+v", one.Points)
	}
	checkGolden(t, "placement -placement ac", placementTimingFree(one))
	if _, err := PlacementStudy(Options{Scale: 0.5, Seed: 42, Placement: "nope"}); err == nil {
		t.Fatal("unknown placement not rejected")
	}
}

func TestPlanFor(t *testing.T) {
	for _, tc := range []struct {
		exp, placement string
		want           []string
	}{
		{"placement", "", []string{"plan \"rs\"", "7 groups", "coupled"}},
		{"placement", "s", []string{"plan \"s\"", "1 groups", "co-located"}},
		{"placement", "auto", []string{"plan \"auto\""}},
		{"fig7", "", []string{"plan \"percomp\""}},
		{"fig7", "s", []string{"1 groups"}},
		{"fig8", "", []string{"16 groups"}},
	} {
		out, err := PlanFor(tc.exp, Options{Scale: 0.5, Seed: 42, Placement: tc.placement})
		if err != nil {
			t.Fatalf("PlanFor(%s, %q): %v", tc.exp, tc.placement, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("PlanFor(%s, %q) missing %q:\n%s", tc.exp, tc.placement, w, out)
			}
		}
	}
	if _, err := PlanFor("fig4", Options{}); err == nil {
		t.Fatal("PlanFor should reject experiments without plans")
	}
	if _, err := PlanFor("fig7", Options{Placement: "cr2"}); err == nil {
		t.Fatal("PlanFor fig7 should reject study-only placements")
	}
	// Exactly the table's plannable experiments plan, and only under their
	// own placements.
	for _, e := range Experiments() {
		_, err := PlanFor(e.Name, Options{Scale: 0.2, Seed: 42, Placement: "s"})
		if takesS := slices.Contains(e.Placements, "s"); (err == nil) != (e.Plannable() && takesS) {
			t.Errorf("PlanFor(%s, s): err = %v, plannable %v", e.Name, err, e.Plannable())
		}
	}
	// fig8's plan build carries fig8's bulk traffic, so "auto" profiles a
	// loaded fabric, not an idle one.
	e, _ := Lookup("fig8")
	busy := 0.0
	for _, c := range e.plan(Options{Scale: 0.2, Seed: 42}).run("", nil).comps {
		busy += c.BusyNs
	}
	if busy == 0 {
		t.Error("fig8 plan build is idle: its auto probe would profile no traffic")
	}
}

func TestFigPlacementOption(t *testing.T) {
	base := Fig7(Options{Scale: 0.2, Seed: 42})
	coloc := Fig7(Options{Scale: 0.2, Seed: 42, Placement: "s"})
	checkGolden(t, "fig7 -scale 0.2", base.String())
	checkGolden(t, "fig7 -scale 0.2 -placement s", coloc.String())
	// Fully co-located split == sequential: no channels, speedup 1.
	p := coloc.Get(8)
	if p.Speedup < 0.99 || p.Speedup > 1.01 {
		t.Errorf("fig7 co-located speedup = %.2f, want ~1", p.Speedup)
	}
	if base.Get(8).Speedup <= p.Speedup {
		t.Errorf("per-component speedup %.2f should beat co-located %.2f",
			base.Get(8).Speedup, p.Speedup)
	}
}
