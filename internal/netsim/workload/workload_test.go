package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
)

func TestParetoBoundedAndDeterministic(t *testing.T) {
	d := workload.Pareto{Min: 100, Alpha: 1.3, Max: 100_000}
	r1, r2 := sim.NewRand(5), sim.NewRand(5)
	sawBig := false
	for i := 0; i < 10_000; i++ {
		a, b := d.Sample(r1), d.Sample(r2)
		if a != b {
			t.Fatal("same seed, different samples")
		}
		if a < 100 || a > 100_000 {
			t.Fatalf("sample %d outside [100, 100000]", a)
		}
		if a > 10_000 {
			sawBig = true
		}
	}
	if !sawBig {
		t.Fatal("heavy tail never produced a large flow")
	}
}

func TestShufflePatternCoversAllPeers(t *testing.T) {
	var p workload.Shuffle
	n := 5
	for src := 0; src < n; src++ {
		seen := map[int]bool{}
		for f := 0; f < n-1; f++ {
			d := p.Dst(nil, src, f, n)
			if d == src || d < 0 || d >= n {
				t.Fatalf("src %d flow %d: bad dst %d", src, f, d)
			}
			seen[d] = true
		}
		if len(seen) != n-1 {
			t.Fatalf("src %d: %d distinct dsts in one rotation, want %d", src, len(seen), n-1)
		}
	}
}

// closHosts builds a small Clos and returns the simulation plus its hosts
// in slot order.
func closHosts(t *testing.T, spec topogen.ClosSpec, seed uint64, parts int) (*orch.Simulation, *netsim.Built, []*netsim.Host) {
	t.Helper()
	topo, m := topogen.Clos(spec)
	var assign []int
	if parts > 1 {
		assign = m.AssignByPod(parts)
	}
	b := topo.Build("clos", seed, assign, nil)
	s := orch.New()
	instantiate.WirePartitions(s, topo, b, true)
	var hosts []*netsim.Host
	for _, pod := range m.HostSlots {
		for _, leaf := range pod {
			for _, slot := range leaf {
				h := b.Hosts[slot]
				if h == nil {
					h = b.MaterializeSlot(slot)
				}
				hosts = append(hosts, h)
			}
		}
	}
	return s, b, hosts
}

var smallClos = topogen.ClosSpec{
	Pods: 4, LeafPerPod: 2, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 2,
	HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
	LinkDelay: sim.Microsecond,
}

func TestClosedLoopIncast(t *testing.T) {
	s, b, hosts := closHosts(t, smallClos, 11, 1)
	eng := workload.Install(hosts, workload.Spec{
		Pattern: workload.Incast{Victim: 0},
		Sizes:   workload.Fixed(20_000),
		Arrival: workload.Closed{Concurrency: 2},
		Seed:    11,
	})
	s.RunSequential(2 * sim.Millisecond)
	r := eng.Collect()
	if r.FlowsCompleted == 0 {
		t.Fatal("no flows completed")
	}
	if r.FlowsCompleted > r.FlowsStarted {
		t.Fatalf("completed %d > started %d", r.FlowsCompleted, r.FlowsStarted)
	}
	if r.FCT.Count() != r.FlowsCompleted {
		t.Fatalf("FCT count %d != completions %d", r.FCT.Count(), r.FlowsCompleted)
	}
	if r.FCT.Percentile(0) <= 0 {
		t.Fatalf("non-positive FCT %v", r.FCT.Percentile(0))
	}
	var noRoute uint64
	for _, sw := range b.Switches {
		noRoute += sw.NoRoute
	}
	if noRoute != 0 {
		t.Fatalf("%d no-route drops", noRoute)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

func TestOpenLoopShuffleHeavyTailed(t *testing.T) {
	s, _, hosts := closHosts(t, smallClos, 13, 1)
	eng := workload.Install(hosts, workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 1000, Alpha: 1.3, Max: 200_000},
		Arrival: workload.Open{FlowsPerSec: 50_000},
		Seed:    13,
	})
	s.RunSequential(2 * sim.Millisecond)
	r := eng.Collect()
	if r.FlowsStarted == 0 || r.FlowsCompleted == 0 {
		t.Fatalf("flows started=%d completed=%d", r.FlowsStarted, r.FlowsCompleted)
	}
	if r.BytesSent == 0 {
		t.Fatal("no bytes sent")
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

// digest captures everything observable about a workload run.
func digest(eng *workload.Engine, b *netsim.Built) string {
	r := eng.Collect()
	var rx uint64
	for _, sw := range b.Switches {
		rx += sw.RxPackets
	}
	return fmt.Sprintf("flows=%d done=%d bytes=%d fctN=%d fctMean=%v fctMax=%v swRx=%d",
		r.FlowsStarted, r.FlowsCompleted, r.BytesSent,
		r.FCT.Count(), r.FCT.Mean(), r.FCT.Percentile(100), rx)
}

// TestPlacementBitIdentity is the standing-invariant property test on the
// new stack: the same partitioned Clos + workload run under RunSequential,
// RunParallel(per-component), and RunParallel(random placement) must agree on
// every observable — flow counts, FCT distribution, switch packet counts.
func TestPlacementBitIdentity(t *testing.T) {
	const end = 2 * sim.Millisecond
	spec := workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 800, Alpha: 1.4, Max: 100_000},
		Arrival: workload.Open{FlowsPerSec: 30_000},
		Seed:    23,
	}
	run := func(placement *decomp.Placement) string {
		s, b, hosts := closHosts(t, smallClos, 23, 4)
		eng := workload.Install(hosts, spec)
		if placement == nil {
			s.RunSequential(end)
		} else if err := s.RunParallel(end, *placement); err != nil {
			t.Fatalf("RunParallel(%v): %v", placement.Groups, err)
		}
		if live := s.LiveFrames(); live != 0 {
			t.Fatalf("%d frames leaked", live)
		}
		return digest(eng, b)
	}

	ref := run(nil)
	nComps := 0
	{
		// Count components once: partitions (4) plus trunk channels.
		s, _, _ := closHosts(t, smallClos, 23, 4)
		nComps = s.NumComponents()
	}
	placements := []decomp.Placement{decomp.PerComponent(nComps)}
	prng := sim.NewRand(23 * 104729)
	for k := 0; k < 2; k++ {
		groups := make([]int, nComps)
		for i := range groups {
			groups[i] = prng.Intn(1 + prng.Intn(nComps))
		}
		placements = append(placements, decomp.Placement{Name: fmt.Sprintf("rand%d", k), Groups: groups})
	}
	for _, p := range placements {
		p := p
		if got := run(&p); got != ref {
			t.Fatalf("placement %s diverged:\n  placed:     %s\n  sequential: %s", p.Name, got, ref)
		}
	}
}
