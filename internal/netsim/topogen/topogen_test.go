package topogen_test

import (
	"fmt"
	"testing"

	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slab"
)

const probePort = 7

// buildAndWire instantiates a Clos topology into an orch simulation.
func buildAndWire(t *testing.T, topo *netsim.Topology, seed uint64, assign []int) (*orch.Simulation, *netsim.Built) {
	t.Helper()
	b := topo.Build("clos", seed, assign, nil)
	s := orch.New()
	instantiate.WirePartitions(s, topo, b, true)
	return s, b
}

func TestAddressPlanIsPodAligned(t *testing.T) {
	_, m := topogen.Clos(topogen.ClosSpec{
		Pods: 3, LeafPerPod: 2, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 3,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	})
	seen := map[proto.IP]bool{}
	for p := 0; p < 3; p++ {
		for l := 0; l < 2; l++ {
			for i := 0; i < 3; i++ {
				ip := m.HostIP(p, l, i)
				if seen[ip] {
					t.Fatalf("duplicate address %v", ip)
				}
				seen[ip] = true
				if !m.LeafPrefix[p][l].Contains(ip) {
					t.Errorf("%v outside its leaf prefix %v", ip, m.LeafPrefix[p][l])
				}
				if !m.PodPrefix[p].Contains(ip) {
					t.Errorf("%v outside its pod prefix %v", ip, m.PodPrefix[p])
				}
				for q := 0; q < 3; q++ {
					if q != p && m.PodPrefix[q].Contains(ip) {
						t.Errorf("%v inside foreign pod prefix %v", ip, m.PodPrefix[q])
					}
				}
			}
		}
	}
}

// TestRoutingStateIsOPodsAt100kHosts is the tentpole's acceptance bound: a
// 10⁵-host multi-pod Clos builds with per-switch routing state proportional
// to pods (+ pod-local leaves), three orders of magnitude below per-host
// state.
func TestRoutingStateIsOPodsAt100kHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host build in -short mode")
	}
	spec := topogen.ClosSpec{
		Pods: 100, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
	topo, m := topogen.Clos(spec)
	if got := m.TotalHosts(); got != 102400 {
		t.Fatalf("TotalHosts = %d, want 102400", got)
	}
	b := topo.Build("clos100k", 1, nil, nil)

	bound := spec.Pods + spec.LeafPerPod + 2 // pod aggregates + own pod's leaves + slack
	maxEntries, totalBytes := 0, 0
	for _, sw := range b.Switches {
		perIP, prefix := sw.RouteEntries()
		if perIP != 0 {
			t.Fatalf("%s: %d per-IP routes on a lazy hierarchical build", sw.Name(), perIP)
		}
		if perIP+prefix > maxEntries {
			maxEntries = perIP + prefix
		}
		totalBytes += sw.RouteStateBytes()
	}
	if maxEntries > bound {
		t.Fatalf("max per-switch routing entries = %d, want <= %d (O(pods), hosts = %d)",
			maxEntries, bound, m.TotalHosts())
	}
	// Flat per-IP routing would hold hosts×switches entries ≈ 64 KB/host;
	// the aggregate build must stay orders of magnitude below that.
	perHost := float64(totalBytes) / float64(m.TotalHosts())
	if perHost > 512 {
		t.Fatalf("routing state = %.1f B/host, want < 512", perHost)
	}
	t.Logf("switches=%d maxEntries=%d routingState=%.1fB/host",
		len(b.Switches), maxEntries, perHost)

	// Materializing a slot wires the host and its direct route.
	h := b.MaterializeSlot(m.HostSlots[3][5][7])
	if h == nil || h.IP() != m.HostIP(3, 5, 7) {
		t.Fatal("MaterializeSlot returned wrong host")
	}
	if b.MaterializeSlot(m.HostSlots[3][5][7]) != h {
		t.Fatal("MaterializeSlot is not idempotent")
	}
}

// probeCounts sends one probe from every host to every other host and
// returns per-destination delivery counts plus the total NoRoute drops.
func probeCounts(t *testing.T, spec topogen.ClosSpec, seed uint64) ([]uint64, uint64) {
	t.Helper()
	topo, m := topogen.Clos(spec)
	s, b := buildAndWire(t, topo, seed, nil)
	n := m.TotalHosts()
	hosts := make([]*netsim.Host, 0, n)
	for _, pod := range m.HostSlots {
		for _, leaf := range pod {
			for _, slot := range leaf {
				hosts = append(hosts, b.Hosts[slot])
			}
		}
	}
	got := make([]uint64, n)
	for i, h := range hosts {
		i := i
		h.BindUDP(probePort, func(proto.IP, uint16, []byte, int) { got[i]++ })
	}
	for i, h := range hosts {
		i, h := i, h
		h.SetApp(netsim.AppFunc(func(*netsim.Host) {
			for j, dst := range hosts {
				if j == i {
					continue
				}
				h.SendUDP(dst.IP(), probePort, probePort, nil, 100)
			}
		}))
	}
	s.RunSequential(5 * sim.Millisecond)
	var noRoute uint64
	for _, sw := range b.Switches {
		noRoute += sw.NoRoute
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
	return got, noRoute
}

// TestPrefixRouteEquivalence is the satellite property test: on random
// generated fabrics, aggregate (prefix) routing delivers every frame to
// exactly the destination per-IP routing delivers it to — full-mesh probes,
// zero drops, identical per-destination counts.
func TestPrefixRouteEquivalence(t *testing.T) {
	rng := sim.NewRand(7)
	for trial := 0; trial < 4; trial++ {
		spine := 1 + rng.Intn(2)
		spec := topogen.ClosSpec{
			Pods:         2 + rng.Intn(3),
			LeafPerPod:   1 + rng.Intn(3),
			SpinePerPod:  spine,
			Cores:        spine * (1 + rng.Intn(2)),
			HostsPerLeaf: 1 + rng.Intn(3),
			HostRate:     10 * sim.Gbps,
			LeafRate:     40 * sim.Gbps,
			LinkDelay:    sim.Microsecond,
		}
		if spec.LeafPerPod*spec.HostsPerLeaf*spec.Pods < 2 {
			spec.HostsPerLeaf = 2
		}
		name := fmt.Sprintf("pods%d.leaf%d.spine%d.core%d.hosts%d",
			spec.Pods, spec.LeafPerPod, spec.SpinePerPod, spec.Cores, spec.HostsPerLeaf)
		t.Run(name, func(t *testing.T) {
			flat := spec
			flat.FlatRoutes = true
			wantCounts, flatDrops := probeCounts(t, flat, 42)
			gotCounts, hierDrops := probeCounts(t, spec, 42)
			if flatDrops != 0 || hierDrops != 0 {
				t.Fatalf("drops: flat=%d hierarchical=%d, want 0", flatDrops, hierDrops)
			}
			n := len(wantCounts)
			for i := range wantCounts {
				if wantCounts[i] != uint64(n-1) {
					t.Fatalf("flat: host %d received %d probes, want %d", i, wantCounts[i], n-1)
				}
				if gotCounts[i] != wantCounts[i] {
					t.Fatalf("host %d: hierarchical delivered %d, per-IP %d",
						i, gotCounts[i], wantCounts[i])
				}
			}
		})
	}
}

// TestECMPDeterministicAcrossPartitionedBuilds asserts forwarding decisions
// are a function of the topology alone: building the same Clos monolithic,
// 2-way, and 4-way partitioned installs identical next-hop choices (same
// iface index for every destination on every switch).
func TestECMPDeterministicAcrossPartitionedBuilds(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 4, LeafPerPod: 2, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 2,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	}
	build := func(parts int) (*netsim.Built, *topogen.ClosMeta) {
		topo, m := topogen.Clos(spec)
		var assign []int
		if parts > 1 {
			assign = m.AssignByPod(parts)
		}
		return topo.Build("clos", 99, assign, nil), m
	}
	ref, m := build(1)
	ips := make([]proto.IP, 0, m.TotalHosts())
	for p := 0; p < spec.Pods; p++ {
		for l := 0; l < spec.LeafPerPod; l++ {
			for i := 0; i < spec.HostsPerLeaf; i++ {
				ips = append(ips, m.HostIP(p, l, i))
			}
		}
	}
	for _, parts := range []int{2, 4} {
		b, _ := build(parts)
		for si := range ref.Switches {
			for _, ip := range ips {
				refOut, refOK := ref.Switches[si].Route(ip)
				out, ok := b.Switches[si].Route(ip)
				if refOK != ok || (ok && refOut != out) {
					t.Fatalf("switch %d route to %v: %d-way build got (%d,%v), monolithic (%d,%v)",
						si, ip, parts, out, ok, refOut, refOK)
				}
			}
		}
	}
}

// TestDefaultUpRouteEquivalence: the default-route plan must (a) deliver
// every full-mesh probe exactly like the per-pod aggregate plan, (b)
// install the same next hop for every valid host address on every switch —
// the ECMP candidate sets coincide tier by tier, so forwarding is
// hop-for-hop identical — and (c) keep per-pod-switch routing state
// independent of the pod count, pushing the O(Pods) tier onto the cores.
func TestDefaultUpRouteEquivalence(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 4, LeafPerPod: 3, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 2,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	}
	du := spec
	du.DefaultUp = true

	wantCounts, podDrops := probeCounts(t, spec, 42)
	gotCounts, duDrops := probeCounts(t, du, 42)
	if podDrops != 0 || duDrops != 0 {
		t.Fatalf("drops: per-pod=%d default-up=%d, want 0", podDrops, duDrops)
	}
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("host %d: default-up delivered %d, per-pod plan %d",
				i, gotCounts[i], wantCounts[i])
		}
	}

	topoPod, m := topogen.Clos(spec)
	bPod := topoPod.Build("clos", 7, nil, nil)
	topoDU, _ := topogen.Clos(du)
	bDU := topoDU.Build("clos", 7, nil, nil)
	for p := 0; p < spec.Pods; p++ {
		for l := 0; l < spec.LeafPerPod; l++ {
			for i := 0; i < spec.HostsPerLeaf; i++ {
				ip := m.HostIP(p, l, i)
				for si := range bPod.Switches {
					refOut, refOK := bPod.Switches[si].Route(ip)
					out, ok := bDU.Switches[si].Route(ip)
					if refOK != ok || (ok && refOut != out) {
						t.Fatalf("switch %d route to %v: default-up (%d,%v), per-pod (%d,%v)",
							si, ip, out, ok, refOut, refOK)
					}
				}
			}
		}
	}

	// Pod-switch state must not grow with the pod count.
	maxPodEntries := func(spec topogen.ClosSpec) int {
		topo, m := topogen.Clos(spec)
		b := topo.Build("clos", 7, nil, nil)
		max := 0
		for p := 0; p < spec.Pods; p++ {
			for _, si := range m.PodSwitches(p) {
				perIP, prefix := b.Switches[si].RouteEntries()
				if n := perIP + prefix; n > max {
					max = n
				}
			}
		}
		return max
	}
	small, big := du, du
	big.Pods = 8
	big.Cores = 4
	if a, b := maxPodEntries(small), maxPodEntries(big); a != b {
		t.Fatalf("default-up pod-switch entries grew with pods: %d pods → %d entries, %d pods → %d",
			small.Pods, a, big.Pods, b)
	}
}

// TestHostNamesMatchSprintf pins the slot names Clos builds from one buffer
// per pod to the Sprintf form they replaced, across digit-count changes
// in every field (pods and hosts past 9 and 99, leaves past 9).
func TestHostNamesMatchSprintf(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 12, LeafPerPod: 11, SpinePerPod: 1, Cores: 1, HostsPerLeaf: 101,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
	topo, m := topogen.Clos(spec)
	for p, pod := range m.HostSlots {
		for l, leaf := range pod {
			for i, slot := range leaf {
				if got, want := topo.Hosts[slot].Name, fmt.Sprintf("h%d.%d.%d", p, l, i); got != want {
					t.Fatalf("slot %d: name %q, want %q", slot, got, want)
				}
			}
		}
	}
}

// TestBuildAllocs holds Topology.Build on a lazy 10-pod Clos to O(switches
// + slab chunks) allocations, not O(interfaces): interfaces and switches
// come from their network's slabs, every switch's interface list,
// adjacency and route lists are cut from one array each, and compiled
// route tables from slabs. One interface per allocation, or a list
// regrown per link, blows the bound.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's")
	}
	spec := scale100k
	spec.Pods = 10
	topo, _ := topogen.Clos(spec)
	ifaces := 2 * len(topo.Links)
	chunks := (ifaces + slab.PerChunk[netsim.Iface]() - 1) / slab.PerChunk[netsim.Iface]()
	got := testing.AllocsPerRun(2, func() { topo.Build("clos", 1, nil, nil) })
	if bound := len(topo.Switches) + chunks; got > float64(bound) {
		t.Fatalf("building %d switches and %d interfaces allocated %.0f objects, want at most %d (one per switch plus one per %d-interface chunk)",
			len(topo.Switches), ifaces, got, bound, slab.PerChunk[netsim.Iface]())
	}
}

// TestSwitchNamesMatchSprintf pins the core, spine and leaf names Clos
// builds from one shared buffer to the Sprintf form they replaced, across
// digit-count changes in every field.
func TestSwitchNamesMatchSprintf(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 12, LeafPerPod: 11, SpinePerPod: 2, Cores: 12, HostsPerLeaf: 1,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
	topo, m := topogen.Clos(spec)
	check := func(sw int, want string) {
		t.Helper()
		if got := topo.Switches[sw].Name; got != want {
			t.Fatalf("switch %d: name %q, want %q", sw, got, want)
		}
	}
	for c, sw := range m.Core {
		check(sw, fmt.Sprintf("core%d", c))
	}
	for p := range m.Spine {
		for j, sw := range m.Spine[p] {
			check(sw, fmt.Sprintf("spine%d.%d", p, j))
		}
		for l, sw := range m.Leaf[p] {
			check(sw, fmt.Sprintf("leaf%d.%d", p, l))
		}
	}
	if n := len(m.Core) + spec.Pods*(spec.SpinePerPod+spec.LeafPerPod); len(topo.Switches) != n {
		t.Fatalf("%d switches, want %d", len(topo.Switches), n)
	}
}
