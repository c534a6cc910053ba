package instantiate_test

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

func TestDetailedHostWire(t *testing.T) {
	n := netsim.New("net", 1)
	sw := n.AddSwitch("sw")
	ip := proto.HostIP(5)
	ext := n.AddExternal(sw, "h", 10*sim.Gbps, ip)
	peer := n.AddHost("peer", proto.HostIP(6))
	n.ConnectHostSwitch(peer, sw, 10*sim.Gbps, sim.Microsecond)
	n.ComputeRoutes()

	s := orch.New()
	s.Add(n)
	dh := instantiate.NewDetailedHost("h", ip, hostsim.QemuParams(), nicsim.DefaultParams(), 3)
	dh.Wire(s, n, ext)
	if s.NumComponents() != 3 {
		t.Fatalf("components = %d, want net+host+nic", s.NumComponents())
	}

	// Traffic flows both ways through the wired stack.
	got := 0
	peer.BindUDP(9, func(src proto.IP, sport uint16, p []byte, _ int) {
		got++
		peer.SendUDP(src, 9, sport, p, 0)
	})
	echoed := 0
	dh.Host.BindUDP(7, func(proto.IP, uint16, []byte, int) { echoed++ })
	dh.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		h.SendUDP(proto.HostIP(6), 7, 9, []byte("x"), 0)
	}))
	s.RunSequential(2 * sim.Millisecond)
	if got != 1 || echoed != 1 {
		t.Fatalf("traffic: got=%d echoed=%d", got, echoed)
	}
}

// buildParts builds a 2-partition dumbbell-ish topology.
func buildParts() (*orch.Simulation, *netsim.Built) {
	topo := &netsim.Topology{}
	a := topo.AddSwitch("a")
	b := topo.AddSwitch("b")
	// Two parallel links at one delay: two channels on one plan bundle.
	topo.AddLink(a, b, 10*sim.Gbps, sim.Microsecond)
	topo.AddLink(a, b, 10*sim.Gbps, sim.Microsecond)
	topo.AddHost("h1", proto.HostIP(1), a, 10*sim.Gbps, sim.Microsecond)
	topo.AddHost("h2", proto.HostIP(2), b, 10*sim.Gbps, sim.Microsecond)
	built := topo.Build("net", 1, []int{0, 1}, nil)
	s := orch.New()
	instantiate.WirePartitions(s, topo, built, true)
	return s, built
}

// TestWirePartitionsTrunkVsPerLink: each boundary link is its own channel,
// and two parallel boundary links between one partition pair fold into one
// trunk — one sync bundle in the plan and one model link carrying both.
func TestWirePartitionsTrunkVsPerLink(t *testing.T) {
	s, built := buildParts()
	pl, err := s.Plan(decomp.PerComponent(s.NumComponents()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Channels) != 2 || pl.Channels[0].Bundle != 0 || pl.Channels[1].Bundle != 0 {
		t.Fatalf("plan channels %+v, want two on bundle 0", pl.Channels)
	}
	h1, h2 := built.Hosts[0], built.Hosts[1]
	rx := 0
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { rx++ })
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		for i := 0; i < 5; i++ {
			h.SendUDP(proto.HostIP(2), 1, 9, nil, 100)
		}
	}))
	s.RunSequential(2 * sim.Millisecond)
	if rx != 5 {
		t.Fatalf("delivered %d/5", rx)
	}
	comps, links := s.ModelGraph(2 * sim.Millisecond)
	if len(comps) != 2 {
		t.Fatalf("comps = %d", len(comps))
	}
	if len(links) != 1 || links[0].Msgs != instantiate.BoundaryMsgs(built) {
		t.Fatalf("model links %+v, want one carrying all %d boundary frames", links, instantiate.BoundaryMsgs(built))
	}
}

func TestBoundaryMsgsCounts(t *testing.T) {
	s, built := buildParts()
	h1, h2 := built.Hosts[0], built.Hosts[1]
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		for i := 0; i < 7; i++ {
			h.SendUDP(proto.HostIP(2), 1, 9, nil, 100)
		}
	}))
	s.RunSequential(2 * sim.Millisecond)
	if got := instantiate.BoundaryMsgs(built); got != 7 {
		t.Fatalf("BoundaryMsgs = %d, want 7", got)
	}
}

func TestPartitionStrategiesProduceRunnableSims(t *testing.T) {
	// Every strategy on a small three-tier topology must yield a working
	// partitioned simulation (cross-partition reachability).
	spec := netsim.ThreeTierSpec{
		Aggs: 2, RacksPerAgg: 2, HostsPerRack: 2,
		CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	}
	for _, st := range []decomp.Strategy{{Name: "s"}, {Name: "ac"}, {Name: "cr", N: 2}, {Name: "rs"}} {
		topo, meta := netsim.ThreeTier(spec)
		assign := st.Assign(meta, len(topo.Switches))
		built := topo.Build("net", 1, assign, nil)
		s := orch.New()
		instantiate.WirePartitions(s, topo, built, true)
		first, last := built.Hosts[0], built.Hosts[len(built.Hosts)-1]
		ok := false
		last.BindUDP(9, func(proto.IP, uint16, []byte, int) { ok = true })
		dst := last.IP()
		first.SetApp(netsim.AppFunc(func(h *netsim.Host) { h.SendUDP(dst, 1, 9, nil, 0) }))
		s.RunSequential(2 * sim.Millisecond)
		if !ok {
			t.Fatalf("strategy %v: cross-partition packet lost", st)
		}
	}
}

// TestWirePartitionsKeepsBoundaryLatency: boundary links between one pair
// of partitions at different delays each keep their own delay, so a
// partitioned build delivers exactly when the monolithic one does — under
// the sequential executor and with every partition on its own runner. Switch
// s0 is cut from s1 (1 µs away) and s2 (5 µs away); a host on s2 hears a
// host on s0 over the slow link.
func TestWirePartitionsKeepsBoundaryLatency(t *testing.T) {
	const end = 100 * sim.Microsecond
	build := func(assign []int) (*orch.Simulation, *sim.Time) {
		topo := &netsim.Topology{}
		s0, s1, s2 := topo.AddSwitch("s0"), topo.AddSwitch("s1"), topo.AddSwitch("s2")
		topo.AddLink(s0, s1, 10*sim.Gbps, sim.Microsecond)
		topo.AddLink(s0, s2, 10*sim.Gbps, 5*sim.Microsecond)
		topo.AddHost("h0", proto.HostIP(1), s0, 10*sim.Gbps, sim.Microsecond)
		topo.AddHost("h2", proto.HostIP(2), s2, 10*sim.Gbps, sim.Microsecond)
		built := topo.Build("net", 1, assign, nil)
		s := orch.New()
		instantiate.WirePartitions(s, topo, built, true)
		at := new(sim.Time)
		h2 := built.Hosts[1]
		h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { *at = h2.Now() })
		built.Hosts[0].SetApp(netsim.AppFunc(func(h *netsim.Host) { h.SendUDP(proto.HostIP(2), 1, 9, nil, 100) }))
		return s, at
	}
	mono, want := build(nil)
	mono.RunSequential(end)
	if *want != 8_340_800*sim.Picosecond {
		t.Fatalf("monolithic arrival %v, want 8.3408us", *want)
	}

	seq, got := build([]int{0, 1, 1})
	seq.RunSequential(end)
	if *got != *want {
		t.Errorf("partitioned sequential arrival %v, monolithic %v", *got, *want)
	}
	par, got := build([]int{0, 1, 1})
	if err := par.RunParallel(end, decomp.PerComponent(par.NumComponents())); err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("partitioned per-component arrival %v, monolithic %v", *got, *want)
	}
}
