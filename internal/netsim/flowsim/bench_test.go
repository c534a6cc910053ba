package flowsim

import (
	"fmt"
	"testing"

	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
)

// BenchmarkScaleMixed1M is the mixed-fidelity scaling benchmark: a
// 10⁶-endpoint Clos (489 pods × 32 leaves × 64 hosts/leaf = 1,001,472
// slots, default-up routing) carries a packet-level incast foreground in
// one pod while the flow-level tier holds elephants on 30% of all
// endpoints. No background host is ever materialized; the fluid tier's
// whole event bill is the admission wave.
// Reported metrics: endpoints (fabric size), x-events (packet-level event
// projection over flow-tier events — the mixed-fidelity speedup), pkts/s
// (foreground packet throughput per wall-clock second).
func BenchmarkScaleMixed1M(b *testing.B) {
	spec := topogen.ClosSpec{
		Pods: 489, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 64,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true, DefaultUp: true,
	}
	const dur = 2 * sim.Millisecond
	var endpoints int
	var pkts, events, proj uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, m := topogen.Clos(spec)
		bt := topo.Build("mixed1m", 42, nil, nil)
		endpoints = m.TotalHosts()

		slots := m.HostSlots[0][0][:33]
		hosts := make([]*netsim.Host, len(slots))
		for j, slot := range slots {
			hosts[j] = bt.MaterializeSlot(slot)
		}
		weng := workload.Install(hosts, workload.Spec{
			Pattern: workload.Incast{Victim: 0},
			Sizes:   workload.Fixed(20_000),
			Arrival: workload.Open{FlowsPerSec: 1_000},
			Seed:    42,
		})

		all := make([]int, 0, endpoints)
		for _, pod := range m.HostSlots {
			for _, leaf := range pod {
				all = append(all, leaf...)
			}
		}
		tr := &workload.Trace{}
		perm := sim.NewRand(42).Perm(endpoints)
		k := int(0.3 * float64(endpoints) / 2)
		tr.Flows = make([]workload.TraceFlow, k)
		for j := 0; j < k; j++ {
			tr.Flows[j] = workload.TraceFlow{Src: perm[2*j], Dst: perm[2*j+1], Bytes: 1 << 30}
		}
		feng := Install(bt, all, Spec{Trace: tr, Seed: 7})

		s := orch.New()
		instantiate.WirePartitions(s, topo, bt, true)
		s.RunSequential(dur)

		wr := weng.Collect()
		fr := feng.Collect()
		if wr.FlowsCompleted == 0 {
			b.Fatal("foreground idle under background load")
		}
		if fr.ActiveFlows != k {
			b.Fatalf("background admitted %d/%d elephants", fr.ActiveFlows, k)
		}
		if fr.ProjPacketEvents < 10*fr.Events {
			b.Fatalf("flow tier spent %d events vs %d projected — want ≥10×", fr.Events, fr.ProjPacketEvents)
		}
		for _, sw := range bt.Switches {
			pkts += sw.RxPackets
		}
		events += fr.Events
		proj += fr.ProjPacketEvents
	}
	b.ReportMetric(float64(endpoints), "endpoints")
	b.ReportMetric(float64(proj)/float64(events), "x-events")
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkAdmit times resolveBatch on a lone arrival (the Poisson
// regime; nothing to sort) and on one full chunk (a trace's admission
// wave) on a small Clos, links created.
func BenchmarkAdmit(b *testing.B) {
	_, bt, _, slots := admitFabric(b, 1)
	tr := randomTrace(1, admitChunk, len(slots))
	r := Install(bt, slots, Spec{Trace: tr, Seed: 1}).reps[0]
	for _, n := range []int{1, admitChunk} {
		fs := make([]*flow, n)
		for i, a := range tr.Flows[:n] {
			fs[i] = &flow{src: int32(a.Src), dst: int32(a.Dst), bytes: a.Bytes}
		}
		r.resolveBatch(fs)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.resolveBatch(fs)
			}
		})
	}
}

// closMix is a synthetic three-tier mix for the solver benchmarks: every
// flow crosses its source's access link, an uplink, two core links, a
// downlink and its destination's access link, each drawn at random from
// its tier. hosts ≥ 2·nflows gives every flow private access links (the
// mixed_1m elephant tier); fewer makes endpoints shared.
func closMix(t testing.TB, seed uint64, hosts, uplinks, cores, nflows int) *twin {
	caps := make([]float64, 0, 2*(hosts+uplinks+cores))
	tier := func(n int, rate float64) (base int) {
		base = len(caps)
		for i := 0; i < n; i++ {
			caps = append(caps, rate)
		}
		return base
	}
	tx, rx := tier(hosts, 10e9), tier(hosts, 10e9)
	up, down := tier(uplinks, 40e9), tier(uplinks, 40e9)
	coreUp, coreDown := tier(cores, 100e9), tier(cores, 100e9)
	w := newTwin(t, caps)
	rng := sim.NewRand(seed)
	ends := rng.Perm(hosts)
	for i := 0; i < nflows; i++ {
		src, dst := ends[(2*i)%hosts], ends[(2*i+1)%hosts]
		w.admit([]int{tx + src, up + rng.Intn(uplinks), coreUp + rng.Intn(cores),
			coreDown + rng.Intn(cores), down + rng.Intn(uplinks), rx + dst})
	}
	return w
}

// fewRoundsMix is the Poisson regime: a couple of hundred flows with
// shared endpoints over a small fabric, solved in seven rounds — and, in
// that regime, solved again at every arrival.
func fewRoundsMix(t testing.TB) *twin { return closMix(t, 42, 256, 64, 32, 200) }

// capHitMix is mixed_1m's shape at 1/7.5 scale: disjoint elephant pairs,
// ~2.4 flows per uplink and ~10 per core link, thousands of distinct
// bottleneck shares — the round cap is the common case.
func capHitMix(t testing.TB) *twin { return closMix(t, 42, 40_000, 8192, 2048, 20_000) }

// BenchmarkRecompute times one rate recomputation in steady state (scratch
// grown, nothing admitted or retired in between) for the link-side solver
// and, beside it, the flow-side oracle it replaced.
func BenchmarkRecompute(b *testing.B) {
	for _, shape := range []struct {
		name string
		mix  func(testing.TB) *twin
	}{{"few_rounds", fewRoundsMix}, {"cap_hit", capHitMix}} {
		w := shape.mix(b)
		w.solve(shape.name)
		for _, solver := range []struct {
			name string
			fn   func()
		}{{"link", w.rep[0].recompute}, {"oracle", func() { oracleRecompute(w.rep[1]) }}} {
			b.Run(shape.name+"/"+solver.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solver.fn()
				}
			})
		}
	}
}
