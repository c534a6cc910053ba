package splitsim_test

import (
	"strings"
	"testing"

	splitsim "repro"
	"repro/internal/link"
	"repro/internal/netsim"
)

// TestPublicAPIEndToEnd drives a mixed-fidelity simulation entirely through
// the facade: protocol-level network + detailed host, coupled execution
// with the profiler, post-processing into a WTPG.
func TestPublicAPIEndToEnd(t *testing.T) {
	s := splitsim.NewSimulation()
	net := splitsim.NewNetwork("net", 1)
	sw := net.AddSwitch("sw")

	peer := net.AddHost("peer", splitsim.HostIP(2))
	net.ConnectHostSwitch(peer, sw, 10*splitsim.Gbps, splitsim.Microsecond)
	ext := net.AddExternal(sw, "h", 10*splitsim.Gbps, splitsim.HostIP(1))
	net.ComputeRoutes()
	s.Add(net)

	dh := splitsim.NewDetailedHost("h", splitsim.HostIP(1),
		splitsim.QemuParams(), splitsim.DefaultNICParams(), 7)
	dh.Wire(s, net, ext)

	replies := 0
	peer.BindUDP(9, func(src splitsim.IP, sport uint16, p []byte, _ int) {
		peer.SendUDP(src, 9, sport, p, 0)
	})
	dh.Host.BindUDP(7, func(splitsim.IP, uint16, []byte, int) { replies++ })
	dh.Host.AddApp(hostApp(func(h *splitsim.Host) {
		var tick func()
		tick = func() {
			h.SendUDP(splitsim.HostIP(2), 7, 9, []byte("ping"), 0)
			h.After(100*splitsim.Microsecond, tick)
		}
		tick()
	}))

	col := splitsim.NewCollector()
	s.PreRun = func(g *link.Group) { col.Attach(g, 200*splitsim.Microsecond) }
	if err := s.RunCoupled(5 * splitsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if replies == 0 {
		t.Fatal("no echoes")
	}

	a, err := splitsim.Analyze(col.Samples(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := splitsim.BuildWTPG(a)
	if len(g.Nodes) != 3 {
		t.Fatalf("WTPG nodes = %d, want 3", len(g.Nodes))
	}
	if !strings.Contains(g.DOT(), "digraph") {
		t.Fatal("DOT output broken")
	}
}

// hostApp adapts a closure to the hostsim app interface via the facade
// type alias.
type hostApp func(h *splitsim.Host)

func (f hostApp) Start(h *splitsim.Host) { f(h) }

func TestPublicAPITopologyAndTCP(t *testing.T) {
	// Dumbbell through the facade with a DCTCP flow.
	topo, meta := netsim.Dumbbell(netsim.DumbbellSpec{
		HostsPerSide: 1, EdgeRate: 10 * splitsim.Gbps,
		BottleneckRate: splitsim.Gbps,
		EdgeDelay:      splitsim.Microsecond, BottleneckDelay: 10 * splitsim.Microsecond,
	})
	b := topo.Build("net", 1, nil, nil)
	s := splitsim.NewSimulation()
	s.Add(b.Parts[0])
	src, dst := b.Hosts[meta.Left[0]], b.Hosts[meta.Right[0]]
	done := false
	snd, rcv := netsim.NewFlow(src, dst, 40000, 5001, netsim.CCDCTCP, 500_000, func() { done = true })
	src.SetApp(netsim.AppFunc(func(*netsim.Host) { snd.StartFlow() }))
	s.RunSequential(100 * splitsim.Millisecond)
	if !done || rcv.Delivered() != 500_000 {
		t.Fatalf("transfer incomplete: %d", rcv.Delivered())
	}
}

func TestPublicAPITable1(t *testing.T) {
	if !strings.Contains(splitsim.Table1(), "SplitSim") {
		t.Fatal("Table1 broken")
	}
}

func TestFidelityStrings(t *testing.T) {
	if splitsim.ProtocolLevel.String() != "protocol" ||
		splitsim.Coarse.String() != "qemu" ||
		splitsim.Detailed.String() != "gem5" {
		t.Fatal("fidelity strings")
	}
}

// TestPublicAPIPlacement runs one system under three placements through the
// facade and checks the plan/placement surface holds together.
func TestPublicAPIPlacement(t *testing.T) {
	build := func() (*splitsim.Simulation, *netsim.Built) {
		topo, _ := netsim.Dumbbell(netsim.DumbbellSpec{
			HostsPerSide: 2, EdgeRate: 10 * splitsim.Gbps,
			BottleneckRate: splitsim.Gbps,
			EdgeDelay:      splitsim.Microsecond, BottleneckDelay: 10 * splitsim.Microsecond,
		})
		b := topo.Build("net", 3, []int{0, 1}, nil)
		s := splitsim.NewSimulation()
		splitsim.WirePartitions(s, topo, b, false)
		got := 0
		b.Hosts[2].BindUDP(9, func(splitsim.IP, uint16, []byte, int) { got++ })
		b.Hosts[0].BindUDP(9, func(splitsim.IP, uint16, []byte, int) {})
		dst := b.Hosts[2].IP()
		b.Hosts[0].SetApp(netsim.AppFunc(func(h *netsim.Host) {
			h.SendUDP(dst, 9, 9, []byte("x"), 0)
		}))
		return s, b
	}

	s, _ := build()
	pl, err := s.Plan(splitsim.SingleGroup(2))
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumGroups() != 1 || !strings.Contains(pl.String(), "1 groups") {
		t.Fatalf("co-located plan wrong:\n%s", pl.String())
	}
	s.RunSequential(splitsim.Millisecond)
	seqComps, seqLinks := s.ModelGraph(splitsim.Millisecond)

	s2, _ := build()
	s2.RunParallel(splitsim.Millisecond, splitsim.PerComponent(2))
	pcComps, _ := s2.ModelGraph(splitsim.Millisecond)
	if len(pcComps) != len(seqComps) {
		t.Fatalf("model graphs diverge: %d vs %d comps", len(pcComps), len(seqComps))
	}
	for i := range pcComps {
		if pcComps[i].BusyNs != seqComps[i].BusyNs {
			t.Fatalf("busy[%d] %v != %v", i, pcComps[i].BusyNs, seqComps[i].BusyNs)
		}
	}

	// The feedback loop terminates and yields a valid placement.
	auto := splitsim.AutoPlace(seqComps, seqLinks, splitsim.DefaultModelParams(splitsim.Millisecond))
	if n := auto.NumGroups(); n < 1 || n > 2 {
		t.Fatalf("auto placement groups = %d", n)
	}
}
