package netsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/proto"
	"repro/internal/sim"
)

var routeSink int

// BenchmarkRoute times one Switch.Route lookup of a random host address on
// a leaf, a spine and a core of the 102,400-slot Clos (100 pods × 32
// leaves × 8 spines, 32 cores, 32 hosts per leaf; four slots on the leaf
// materialized, so it holds per-IP routes too), against the map-and-lengths
// oracle loaded with the same routes.
func BenchmarkRoute(b *testing.B) {
	topo, m := topogen.Clos(topogen.ClosSpec{
		Pods: 100, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	})
	built := topo.Build("clos", 1, nil, nil)
	for i := 0; i < 4; i++ {
		built.MaterializeSlot(m.HostSlots[0][0][i])
	}
	rng := rand.New(rand.NewSource(1))
	ips := make([]proto.IP, 4096)
	for i := range ips {
		ips[i] = m.HostIP(rng.Intn(m.Spec.Pods), rng.Intn(m.Spec.LeafPerPod), rng.Intn(m.Spec.HostsPerLeaf))
	}
	for _, tier := range []struct {
		name string
		sw   int
	}{{"leaf", m.Leaf[0][0]}, {"spine", m.Spine[0][0]}, {"core", m.Core[0]}} {
		sw := built.Switches[tier.sw]
		oracle := netsim.RouteOracle(sw)
		b.Run(tier.name+"/table", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				routeSink, _ = sw.Route(ips[i%len(ips)])
			}
		})
		b.Run(tier.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				routeSink, _ = oracle(ips[i%len(ips)])
			}
		})
	}
}
