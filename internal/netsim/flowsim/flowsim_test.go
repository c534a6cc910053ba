package flowsim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/flowsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stats"
)

var smallClos = topogen.ClosSpec{
	Pods: 4, LeafPerPod: 2, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 2,
	HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
	LinkDelay: sim.Microsecond,
}

func buildFabric(t testing.TB, spec topogen.ClosSpec, seed uint64, parts int) (*orch.Simulation, *netsim.Built, *topogen.ClosMeta) {
	t.Helper()
	topo, m := topogen.Clos(spec)
	var assign []int
	if parts > 1 {
		assign = m.AssignByPod(parts)
	}
	b := topo.Build("clos", seed, assign, nil)
	s := orch.New()
	instantiate.WirePartitions(s, topo, b, true)
	return s, b, m
}

func allSlots(m *topogen.ClosMeta) []int {
	var out []int
	for _, pod := range m.HostSlots {
		for _, leaf := range pod {
			out = append(out, leaf...)
		}
	}
	return out
}

func materializePod(b *netsim.Built, m *topogen.ClosMeta, pod int) []*netsim.Host {
	var hosts []*netsim.Host
	for _, leaf := range m.HostSlots[pod] {
		for _, slot := range leaf {
			h := b.Hosts[slot]
			if h == nil {
				h = b.MaterializeSlot(slot)
			}
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// TestFlowSmoke is the fast mixed-fidelity smoke `make scale` runs: a lazy
// fabric carries a pure flow-level background mix — no host is ever
// materialized, no frame is ever minted — and the event count stays far
// under the packet-level projection.
func TestFlowSmoke(t *testing.T) {
	lazy := smallClos
	lazy.Lazy = true
	s, b, m := buildFabric(t, lazy, 7, 1)
	eng := flowsim.Install(b, allSlots(m), flowsim.Spec{
		Pattern:     workload.Uniform{},
		Sizes:       workload.Fixed(1_000_000),
		FlowsPerSec: 200, // per endpoint; 16 endpoints → 3.2k flows/s
		Seed:        7,
	})
	s.RunSequential(20 * sim.Millisecond)
	r := eng.Collect()
	if r.FlowsStarted == 0 || r.FlowsCompleted == 0 {
		t.Fatalf("flows started=%d completed=%d", r.FlowsStarted, r.FlowsCompleted)
	}
	if r.Unroutable != 0 {
		t.Fatalf("%d unroutable flows", r.Unroutable)
	}
	if r.FCT.Min() <= 0 {
		t.Fatalf("non-positive FCT %v", r.FCT.Min())
	}
	for i, h := range b.Hosts {
		if h != nil {
			t.Fatalf("slot %d materialized by the flow tier", i)
		}
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d frames minted by the flow tier", live)
	}
	if r.ProjPacketEvents < 10*r.Events {
		t.Fatalf("flow tier spent %d events vs %d projected packet events — want ≥10×",
			r.Events, r.ProjPacketEvents)
	}
	t.Logf("%v (%.0fx fewer events than packet projection)",
		r, float64(r.ProjPacketEvents)/float64(r.Events))
}

// TestFlowTraceReplay drives the flow tier from the same trace format the
// packet tier consumes.
func TestFlowTraceReplay(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.TraceFlow{
		{Start: 0, Src: 0, Dst: 13, Bytes: 50_000},
		{Start: 100 * sim.Microsecond, Src: 5, Dst: 9, Bytes: 2_000},
		{Start: 100 * sim.Microsecond, Src: 9, Dst: 5, Bytes: 2_000},
		{Start: 400 * sim.Microsecond, Src: 15, Dst: 0, Bytes: 1_000_000},
	}}
	lazy := smallClos
	lazy.Lazy = true
	s, b, m := buildFabric(t, lazy, 11, 1)
	eng := flowsim.Install(b, allSlots(m), flowsim.Spec{Trace: tr, Seed: 11})
	s.RunSequential(5 * sim.Millisecond)
	r := eng.Collect()
	if r.FlowsStarted != len(tr.Flows) || r.FlowsCompleted != len(tr.Flows) {
		t.Fatalf("started=%d completed=%d, want %d", r.FlowsStarted, r.FlowsCompleted, len(tr.Flows))
	}
	var want int64
	for _, f := range tr.Flows {
		want += f.Bytes
	}
	if r.BytesModeled != want {
		t.Fatalf("modeled %d bytes, want %d", r.BytesModeled, want)
	}
}

// runTierFCT runs one fixed-size trace through the chosen tier on a fresh
// fabric and returns the mean FCT.
func runTierFCT(t *testing.T, size int64, packet bool) sim.Time {
	t.Helper()
	// Well-separated cross-pod flows: no sharing, so the fluid model and
	// the packet tier should agree up to burst-pacing granularity.
	var tr workload.Trace
	for i := 0; i < 6; i++ {
		tr.Flows = append(tr.Flows, workload.TraceFlow{
			Start: sim.Time(i) * 600 * sim.Microsecond,
			Src:   i, Dst: (i + 9) % 16, Bytes: size,
		})
	}
	spec := smallClos
	if !packet {
		spec.Lazy = true
	}
	s, b, m := buildFabric(t, spec, 31, 1)
	end := 10 * sim.Millisecond
	if packet {
		var hosts []*netsim.Host
		for pod := range m.HostSlots {
			hosts = append(hosts, materializePod(b, m, pod)...)
		}
		eng := workload.Install(hosts, workload.Spec{Arrival: &tr, Seed: 31})
		s.RunSequential(end)
		r := eng.Collect()
		if r.FlowsCompleted != len(tr.Flows) {
			t.Fatalf("packet tier completed %d/%d", r.FlowsCompleted, len(tr.Flows))
		}
		return r.FCT.Mean()
	}
	eng := flowsim.Install(b, allSlots(m), flowsim.Spec{Trace: &tr, Seed: 31})
	s.RunSequential(end)
	r := eng.Collect()
	if r.FlowsCompleted != len(tr.Flows) {
		t.Fatalf("flow tier completed %d/%d", r.FlowsCompleted, len(tr.Flows))
	}
	return r.FCT.Mean()
}

// TestFlowFCTMatchesPacketBySize is the cross-fidelity validity check: on
// an uncongested fabric the fluid model's completion times must track the
// packet tier's per size bucket. Tolerance is 5% of the packet-tier mean
// plus 5µs of slack for burst-pacing re-arm granularity, which dominates
// short flows (documented in DESIGN.md "Mixed fidelity"; observed error
// is under 2% per bucket).
func TestFlowFCTMatchesPacketBySize(t *testing.T) {
	for _, size := range []int64{2_000, 40_000, 400_000} {
		pkt := runTierFCT(t, size, true)
		fl := runTierFCT(t, size, false)
		diff := pkt - fl
		if diff < 0 {
			diff = -diff
		}
		tol := pkt/20 + 5*sim.Microsecond
		t.Logf("size %7d: packet %v, flow %v (Δ %v, tol %v)", size, pkt, fl, diff, tol)
		if diff > tol {
			t.Errorf("size %d: flow-tier FCT %v vs packet-tier %v exceeds tolerance %v", size, fl, pkt, tol)
		}
	}
}

// foregroundDigest folds everything the foreground observes into one
// comparable string: workload report, FCT distribution, switch packet
// counters, plus the background tier's own counters.
func foregroundDigest(w *workload.Engine, f *flowsim.Engine, b *netsim.Built) string {
	r := w.Collect()
	var rx uint64
	for _, sw := range b.Switches {
		rx += sw.RxPackets
	}
	return fmt.Sprintf("flows=%d done=%d bytes=%d fctN=%d fctMean=%v fctMax=%v swRx=%d bg=%v",
		r.FlowsStarted, r.FlowsCompleted, r.BytesSent,
		r.FCT.Count(), r.FCT.Mean(), r.FCT.Max(), rx, f.Collect())
}

// mixedSetup installs a packet-level foreground (pod 0) and a flow-level
// background (every slot) on one partitioned fabric.
func mixedSetup(t testing.TB, seed uint64, parts int) (*orch.Simulation, *netsim.Built, *workload.Engine, *flowsim.Engine) {
	s, b, m := buildFabric(t, smallClos, seed, parts)
	weng := workload.Install(materializePod(b, m, 0), workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 800, Alpha: 1.4, Max: 100_000},
		Arrival: workload.Open{FlowsPerSec: 30_000},
		Seed:    seed,
	})
	feng := flowsim.Install(b, allSlots(m), flowsim.Spec{
		Pattern:     workload.Uniform{},
		Sizes:       workload.Fixed(250_000),
		FlowsPerSec: 2_000,
		Seed:        seed ^ 0xbeef,
	})
	return s, b, weng, feng
}

// TestMixedFidelityPlacementBitIdentity is the tentpole's determinism
// property: with the background tier actively reserving capacity on shared
// links, the foreground's every observable must stay bit-identical across
// sequential, placed, random-placement, and parallel execution.
func TestMixedFidelityPlacementBitIdentity(t *testing.T) {
	const end = 2 * sim.Millisecond
	const seed = 41
	run := func(placement *decomp.Placement, parallel bool) string {
		s, b, weng, feng := mixedSetup(t, seed, 4)
		switch {
		case placement == nil:
			s.RunSequential(end)
		case parallel:
			if err := s.RunParallel(end, *placement); err != nil {
				t.Fatalf("RunParallel: %v", err)
			}
		default:
			if err := s.RunParallel(end, *placement); err != nil {
				t.Fatalf("RunParallel(%v): %v", placement.Groups, err)
			}
		}
		if live := s.LiveFrames(); live != 0 {
			t.Fatalf("%d frames leaked", live)
		}
		return foregroundDigest(weng, feng, b)
	}

	ref := run(nil, false)
	var nComps int
	{
		s, _, _, _ := mixedSetup(t, seed, 4)
		nComps = s.NumComponents()
	}
	placements := []decomp.Placement{decomp.PerComponent(nComps)}
	prng := sim.NewRand(seed * 104729)
	for k := 0; k < 2; k++ {
		groups := make([]int, nComps)
		for i := range groups {
			groups[i] = prng.Intn(1 + prng.Intn(nComps))
		}
		placements = append(placements, decomp.Placement{Name: fmt.Sprintf("rand%d", k), Groups: groups})
	}
	for _, p := range placements {
		p := p
		if got := run(&p, false); got != ref {
			t.Fatalf("placement %s diverged:\n  placed:     %s\n  sequential: %s", p.Name, got, ref)
		}
	}
	pc := decomp.PerComponent(nComps)
	if got := run(&pc, true); got != ref {
		t.Fatalf("parallel run diverged:\n  parallel:   %s\n  sequential: %s", got, ref)
	}
}

// TestBackgroundThrottlesForeground checks the coupling direction: heavy
// background load on shared links must slow foreground completions, and
// clearing it must restore them.
func TestBackgroundThrottlesForeground(t *testing.T) {
	const end = 2 * sim.Millisecond
	fg := func(bgRate float64) sim.Time {
		s, b, m := buildFabric(t, smallClos, 53, 1)
		weng := workload.Install(materializePod(b, m, 0), workload.Spec{
			Pattern: workload.Shuffle{},
			Sizes:   workload.Fixed(40_000),
			Arrival: workload.Open{FlowsPerSec: 10_000},
			Seed:    53,
		})
		if bgRate > 0 {
			flowsim.Install(b, allSlots(m), flowsim.Spec{
				Pattern:     workload.Uniform{},
				Sizes:       workload.Fixed(10_000_000),
				FlowsPerSec: bgRate,
				Seed:        99,
			})
		}
		s.RunSequential(end)
		r := weng.Collect()
		if r.FlowsCompleted == 0 {
			t.Fatal("no foreground flows completed")
		}
		return r.FCT.Mean()
	}
	quiet := fg(0)
	loaded := fg(5_000)
	t.Logf("foreground mean FCT: quiet %v, loaded %v", quiet, loaded)
	if loaded <= quiet {
		t.Fatalf("background load did not slow foreground: quiet %v, loaded %v", quiet, loaded)
	}
}

// mixedDigest hashes the full explicit state of fabric plus both tiers.
func mixedDigest(t *testing.T, b *netsim.Built, w *workload.Engine, f *flowsim.Engine) uint64 {
	t.Helper()
	var e snap.Encoder
	for _, p := range b.Parts {
		if err := p.SnapshotState(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SnapshotState(&e); err != nil {
		t.Fatal(err)
	}
	if err := f.SnapshotState(&e); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64()
}

// TestMixedFidelityCheckpointRestore: a mixed-fidelity run checkpointed at
// the horizon and resumed on a fresh build must land bit-identical to the
// uninterrupted run — the fluid trajectory rides the checkpoint as aux
// state instead of rejecting with ErrNotCheckpointable.
func TestMixedFidelityCheckpointRestore(t *testing.T) {
	const at, end = sim.Millisecond, 3 * sim.Millisecond
	const seed = 61

	build := func() (*orch.Simulation, *netsim.Built, *workload.Engine, *flowsim.Engine) {
		s, b, weng, feng := mixedSetup(t, seed, 1)
		s.AddAuxState("wl", weng)
		s.AddAuxState("bg", feng)
		return s, b, weng, feng
	}

	s0, b0, w0, f0 := build()
	s0.RunSequential(end)
	want := mixedDigest(t, b0, w0, f0)

	s1, _, _, _ := build()
	ck, err := s1.CheckpointSequential(at)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s2, b2, w2, f2 := build()
	if _, err := s2.ResumeSequential(ck, end); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := mixedDigest(t, b2, w2, f2); got != want {
		t.Fatalf("restored run diverged: digest %x, want %x", got, want)
	}
	fr := f2.Collect()
	if fr.FlowsCompleted == 0 || fr.FlowsStarted == 0 {
		t.Fatalf("restored background tier idle: %v", fr)
	}

	// Restoring into an engine that has already admitted flows must leave
	// nothing of them behind: not the flows, not their links' flow counts,
	// not their place on the active list.
	s3, b3, w3, f3 := build()
	s3.RunSequential(at / 2)
	if pre := f3.Collect(); pre.ActiveFlows == 0 {
		t.Fatalf("engine to restore into admitted nothing: %v", pre)
	}
	if _, err := s3.ResumeSequential(ck, end); err != nil {
		t.Fatalf("resume into a used engine: %v", err)
	}
	if got := mixedDigest(t, b3, w3, f3); got != want {
		t.Fatalf("run restored into a used engine diverged: digest %x, want %x", got, want)
	}
}

// TestFlowReportFCTIsLatency pins the report type so experiment code can
// use the stats helpers directly.
func TestFlowReportFCTIsLatency(t *testing.T) {
	var _ *stats.Latency = flowsim.Report{}.FCT
}

// TestRecycledFlowsReport runs a Poisson churn — about 4,000 flows, a
// dozen or so active at a time — in which retired flows are reused for
// later arrivals, and pins its report to what the engine printed before
// flows were recycled: the counts, the drained-traffic projection and the
// FCT percentiles. Recycling must not move a rate or a completion.
func TestRecycledFlowsReport(t *testing.T) {
	lazy := smallClos
	lazy.Lazy = true
	s, b, m := buildFabric(t, lazy, 3, 1)
	eng := flowsim.Install(b, allSlots(m), flowsim.Spec{
		Pattern:     workload.Uniform{},
		Sizes:       workload.Pareto{Min: 2_000, Alpha: 1.2, Max: 2_000_000},
		FlowsPerSec: 50_000,
		Seed:        11,
	})
	s.RunSequential(5 * sim.Millisecond)
	r := eng.Collect()
	type pinned struct {
		started, completed, active, unroutable int
		bytes                                  int64
		events, proj                           uint64
		p50, p99                               sim.Time
	}
	got := pinned{r.FlowsStarted, r.FlowsCompleted, r.ActiveFlows, r.Unroutable, r.BytesModeled,
		r.Events, r.ProjPacketEvents, r.FCT.Percentile(50), r.FCT.Percentile(99)}
	want := pinned{3989, 3975, 14, 0, 35_178_543, 7964, 251_924, 15_831_466, 163_606_258}
	if got != want {
		t.Fatalf("report %+v, want %+v", got, want)
	}
	if n := flowsim.FlowRecords(eng); 10*n > r.FlowsStarted {
		t.Fatalf("%d flows started on %d flow records: retired flows were not reused", r.FlowsStarted, n)
	}
}
