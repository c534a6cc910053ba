package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestFlowCacheHits verifies the forwarding hot path is actually served from
// the flow cache: the first packet to a destination misses and fills, every
// subsequent one hits.
func TestFlowCacheHits(t *testing.T) {
	n, h1, h2, sw := buildStar()
	got := 0
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { got++ })
	const pkts = 5
	h1.SetApp(AppFunc(func(h *Host) {
		for i := 0; i < pkts; i++ {
			h.SendUDP(h2.IP(), 1, 9, nil, 0)
		}
	}))
	runSeq(1*sim.Millisecond, n)
	if got != pkts {
		t.Fatalf("delivered %d/%d", got, pkts)
	}
	if sw.FlowCacheHits != pkts-1 {
		t.Fatalf("FlowCacheHits = %d, want %d (first packet fills, rest hit)", sw.FlowCacheHits, pkts-1)
	}
}

// TestFlowCacheInvalidatedOnSetRoute proves a route change takes effect even
// for a destination whose next hop is already cached: packets follow the new
// route, not the stale cache entry.
func TestFlowCacheInvalidatedOnSetRoute(t *testing.T) {
	n, h1, h2, sw := buildStar()
	h2got, h1got := 0, 0
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { h2got++ })
	s := sim.NewScheduler(0)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(sim.Second)
	send := func() {
		h1.SendUDP(h2.IP(), 1, 9, nil, 0)
		s.Run()
	}
	send() // fills the cache with h2's real next hop
	send() // hit
	if sw.FlowCacheHits != 1 {
		t.Fatalf("FlowCacheHits = %d, want 1", sw.FlowCacheHits)
	}
	// Redirect h2's address out the port toward h1. h1 receives the
	// mis-routed frames and silently drops them (wrong destination IP).
	h1got = int(h1.RxPackets)
	sw.SetRoute(h2.IP(), 0)
	send()
	if h2got != 2 {
		t.Fatalf("h2 got %d packets after reroute, want 2", h2got)
	}
	if int(h1.RxPackets) != h1got+1 {
		t.Fatalf("rerouted packet did not follow the new route (h1 RxPackets %d, want %d)",
			h1.RxPackets, h1got+1)
	}
}

// TestFlowCacheInvalidatedOnTopologyChange checks that every topology
// mutation that can change a next hop clears the cache: connecting a host,
// connecting two switches, adding an external port, and recomputing routes.
func TestFlowCacheInvalidatedOnTopologyChange(t *testing.T) {
	n := New("net", 1)
	sw := n.AddSwitch("sw")
	h1 := n.AddHost("h1", proto.HostIP(1))
	n.ConnectHostSwitch(h1, sw, 10*sim.Gbps, sim.Microsecond)
	n.ComputeRoutes()

	fill := func() {
		if _, ok := sw.lookup(h1.IP()); !ok {
			t.Fatal("no route to h1")
		}
		e := &sw.fcache[flowSlot(h1.IP())]
		if !e.ok {
			t.Fatal("lookup did not fill the flow cache")
		}
	}
	assertEmpty := func(step string) {
		t.Helper()
		for i := range sw.fcache {
			if sw.fcache[i].ok {
				t.Fatalf("%s left a live flow-cache entry at slot %d", step, i)
			}
		}
	}

	fill()
	h2 := n.AddHost("h2", proto.HostIP(2))
	n.ConnectHostSwitch(h2, sw, 10*sim.Gbps, sim.Microsecond)
	assertEmpty("ConnectHostSwitch")

	fill()
	sw2 := n.AddSwitch("sw2")
	n.ConnectSwitches(sw, sw2, 10*sim.Gbps, sim.Microsecond)
	assertEmpty("ConnectSwitches")

	fill()
	n.AddExternal(sw, "ext", 10*sim.Gbps, proto.HostIP(9))
	assertEmpty("AddExternal")

	fill()
	n.ComputeRoutes()
	assertEmpty("ComputeRoutes")
}
