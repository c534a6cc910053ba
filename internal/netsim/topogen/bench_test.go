package topogen_test

import (
	"testing"

	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
)

// Beyond ns/op the BenchmarkScale* suite reports two scaling figures via
// custom metrics: sustained simulated packets per wall-clock second
// ("pkts/s") and resident routing state per host ("bytes/host").

// scale10k is a 10⁴-host Clos: 16 pods × 16 leaves × 8 spines, 40 hosts
// per leaf = 10,240 hosts, 416 switches.
var scale10k = topogen.ClosSpec{
	Pods: 16, LeafPerPod: 16, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 40,
	HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
	LinkDelay: sim.Microsecond, Lazy: true,
}

// scale100k is the acceptance-scale fabric: 100 pods × 32 leaves × 8
// spines, 32 hosts per leaf = 102,400 hosts, 4,032 switches.
var scale100k = topogen.ClosSpec{
	Pods: 100, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
	HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
	LinkDelay: sim.Microsecond, Lazy: true,
}

// reportRoutingState attaches the bytes-of-routing-state-per-host metric.
func reportRoutingState(b *testing.B, built *netsim.Built, hosts int) {
	total := 0
	for _, sw := range built.Switches {
		total += sw.RouteStateBytes()
	}
	b.ReportMetric(float64(total)/float64(hosts), "bytes/host")
}

// benchBuild measures topology generation + hierarchical route
// installation for a spec.
func benchBuild(b *testing.B, spec topogen.ClosSpec) {
	var built *netsim.Built
	var m *topogen.ClosMeta
	for i := 0; i < b.N; i++ {
		topo, meta := topogen.Clos(spec)
		built = topo.Build("clos", 1, nil, nil)
		m = meta
	}
	reportRoutingState(b, built, m.TotalHosts())
}

func BenchmarkScaleBuild10k(b *testing.B)  { benchBuild(b, scale10k) }
func BenchmarkScaleBuild100k(b *testing.B) { benchBuild(b, scale100k) }

// benchWorkload builds the fabric once per iteration, materializes the
// participating hosts, runs the workload for simDur, and reports sustained
// packets per wall-clock second across the whole benchmark.
func benchWorkload(b *testing.B, spec topogen.ClosSpec, pick func(m *topogen.ClosMeta) []int, wl workload.Spec, simDur sim.Time) {
	var pkts uint64
	var built *netsim.Built
	var m *topogen.ClosMeta
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo, meta := topogen.Clos(spec)
		built = topo.Build("clos", 1, nil, nil)
		m = meta
		slots := pick(meta)
		hosts := make([]*netsim.Host, len(slots))
		for j, slot := range slots {
			hosts[j] = built.MaterializeSlot(slot)
		}
		eng := workload.Install(hosts, wl)
		s := orch.New()
		instantiate.WirePartitions(s, topo, built, true)
		b.StartTimer()

		s.RunSequential(simDur)

		b.StopTimer()
		if s.LiveFrames() != 0 {
			b.Fatalf("%d frames leaked", s.LiveFrames())
		}
		r := eng.Collect()
		if r.FlowsCompleted == 0 {
			b.Fatal("no flows completed")
		}
		for _, sw := range built.Switches {
			pkts += sw.RxPackets
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
	reportRoutingState(b, built, m.TotalHosts())
}

// incastSlots picks 64 clients spread across pods plus one victim.
func incastSlots(m *topogen.ClosMeta) []int {
	slots := []int{m.HostSlots[0][0][0]} // victim first
	for i := 0; len(slots) < 65; i++ {
		p := i % m.Spec.Pods
		l := (i / m.Spec.Pods) % m.Spec.LeafPerPod
		h := i % m.Spec.HostsPerLeaf
		s := m.HostSlots[p][l][h]
		if s != slots[0] {
			slots = append(slots, s)
		}
	}
	return slots
}

// shuffleSlots picks 64 hosts spread across pods.
func shuffleSlots(m *topogen.ClosMeta) []int {
	var slots []int
	for i := 0; len(slots) < 64; i++ {
		p := i % m.Spec.Pods
		l := (i / m.Spec.Pods) % m.Spec.LeafPerPod
		h := i % m.Spec.HostsPerLeaf
		slots = append(slots, m.HostSlots[p][l][h])
	}
	return slots
}

func BenchmarkScaleIncast10k(b *testing.B) {
	benchWorkload(b, scale10k, incastSlots, workload.Spec{
		Pattern: workload.Incast{Victim: 0},
		Sizes:   workload.Fixed(20_000),
		Arrival: workload.Closed{Concurrency: 2},
		Seed:    1,
	}, 2*sim.Millisecond)
}

func BenchmarkScaleShuffle10k(b *testing.B) {
	benchWorkload(b, scale10k, shuffleSlots, workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 1000, Alpha: 1.3, Max: 500_000},
		Arrival: workload.Open{FlowsPerSec: 20_000},
		Seed:    1,
	}, 2*sim.Millisecond)
}

func BenchmarkScaleIncast100k(b *testing.B) {
	benchWorkload(b, scale100k, incastSlots, workload.Spec{
		Pattern: workload.Incast{Victim: 0},
		Sizes:   workload.Fixed(20_000),
		Arrival: workload.Closed{Concurrency: 2},
		Seed:    1,
	}, 2*sim.Millisecond)
}
