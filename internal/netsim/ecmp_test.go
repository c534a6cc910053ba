package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestECMPSpreadsAcrossCores verifies that a fat tree's cross-pod traffic
// uses multiple core switches (per-destination hashed equal-cost paths) —
// without it the tree collapses onto one core and partitioned load is
// meaningless.
func TestECMPSpreadsAcrossCores(t *testing.T) {
	topo, m := FatTree(4, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
	b := topo.Build("ft", 1, nil, nil)
	n := b.Parts[0]

	// Every pod-0 host sends to every pod-2 host.
	for _, dstSlot := range m.HostsByPod[2] {
		b.Hosts[dstSlot].BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	}
	dsts := make([]proto.IP, 0, len(m.HostsByPod[2]))
	for _, s := range m.HostsByPod[2] {
		dsts = append(dsts, b.Hosts[s].IP())
	}
	for _, srcSlot := range m.HostsByPod[0] {
		b.Hosts[srcSlot].SetApp(AppFunc(func(h *Host) {
			for _, d := range dsts {
				h.SendUDP(d, 1, 9, nil, 100)
			}
		}))
	}

	s := sim.NewScheduler(0)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(10 * sim.Millisecond)
	for {
		at, ok := s.PeekTime()
		if !ok || at >= 10*sim.Millisecond {
			break
		}
		s.Step()
	}

	coresUsed := 0
	for _, ci := range m.Core {
		if b.Switches[ci].RxPackets > 0 {
			coresUsed++
		}
	}
	if coresUsed < 2 {
		t.Fatalf("cross-pod traffic used %d core switches; ECMP should spread it", coresUsed)
	}
}

// TestECMPDeterministic verifies the hashed path choice is stable across
// builds (routing must not depend on map iteration or build order noise).
func TestECMPDeterministic(t *testing.T) {
	counts := func() []uint64 {
		topo, m := FatTree(4, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
		b := topo.Build("ft", 1, nil, nil)
		n := b.Parts[0]
		dst := b.Hosts[m.HostsByPod[3][0]]
		dst.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
		ip := dst.IP()
		b.Hosts[m.HostsByPod[0][0]].SetApp(AppFunc(func(h *Host) {
			for i := 0; i < 10; i++ {
				h.SendUDP(ip, 1, 9, nil, 50)
			}
		}))
		s := sim.NewScheduler(0)
		n.Attach(core.Env{Sched: s, Src: 1})
		n.Start(5 * sim.Millisecond)
		for {
			at, ok := s.PeekTime()
			if !ok || at >= 5*sim.Millisecond {
				break
			}
			s.Step()
		}
		out := make([]uint64, len(m.Core))
		for i, ci := range m.Core {
			out[i] = b.Switches[ci].RxPackets
		}
		return out
	}
	a, b := counts(), counts()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core %d packet counts diverged across identical builds: %d vs %d",
				i, a[i], b[i])
		}
	}
}

func TestIfaceStats(t *testing.T) {
	n := New("net", 1)
	sw := n.AddSwitch("sw")
	h1 := n.AddHost("h1", proto.HostIP(1))
	h2 := n.AddHost("h2", proto.HostIP(2))
	n.ConnectHostSwitch(h1, sw, 10*sim.Gbps, sim.Microsecond)
	n.ConnectHostSwitch(h2, sw, 10*sim.Gbps, sim.Microsecond)
	n.ComputeRoutes()
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h1.SetApp(AppFunc(func(h *Host) {
		h.SendUDP(proto.HostIP(2), 1, 9, nil, 958) // wire size 1000B
	}))
	s := sim.NewScheduler(0)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(sim.Millisecond)
	s.RunBefore(sim.Millisecond)
	up := h1.Iface()
	if up.TxPackets != 1 || up.TxBytes != 1000 {
		t.Fatalf("uplink stats: %d pkts %d bytes", up.TxPackets, up.TxBytes)
	}
	if up.Rate() != 10*sim.Gbps || up.delay != sim.Microsecond {
		t.Fatal("iface rate or delay wrong")
	}
	if up.busyUntil > s.Now() {
		t.Fatalf("queue should be drained, busy until %v", up.busyUntil)
	}
}
