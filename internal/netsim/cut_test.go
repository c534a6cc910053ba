package netsim_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
)

// passThrough is a Dataplane that forwards every frame untouched. Its only
// effect is to keep a switch on the two-event hop (link arrival, then
// pipeline step), which a dataplane needs to see frames on arrival.
type passThrough struct{}

func (passThrough) Process(*netsim.Switch, *netsim.Iface, *proto.Frame) bool { return true }

// cutRun is one seeded Clos run's outcome.
type cutRun struct {
	events  uint64
	state   []byte // every partition's SnapshotState, then the engine's
	flows   workload.Report
	rx      uint64 // Σ switch RxPackets
	noRoute uint64 // Σ switch NoRoute
	egress  uint64 // Σ switch-iface TxPackets + Drops: pipeline steps run
}

// runCutClos runs a shuffle on a small Clos until end, on one scheduler
// driven as a sequential orch run drives it: RunBefore(end), then
// DiscardPending. Host 0 of pod 1 is blackholed at its pod's spines and
// left out of the shuffle; a host in pod 0 sends it a burst early in the
// run, so every no-route drop happens long before the end. With twoEvent
// set every switch carries a pass-through Dataplane, which forces the
// two-event hop everywhere.
func runCutClos(t *testing.T, seed uint64, end sim.Time, twoEvent bool) cutRun {
	t.Helper()
	topo, meta := topogen.Clos(topogen.ClosSpec{
		Pods: 2, LeafPerPod: 2, SpinePerPod: 2, Cores: 2, HostsPerLeaf: 4,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	})
	b := topo.Build("clos", seed, nil, nil)
	net := b.Parts[0]
	victim := b.Hosts[meta.HostSlots[1][0][0]]
	for _, sw := range meta.Spine[1] {
		b.Switches[sw].SetPrefixRoute(proto.Prefix{Addr: victim.IP(), Bits: 32})
	}
	var hosts []*netsim.Host
	for _, h := range b.Hosts {
		if h != victim {
			hosts = append(hosts, h)
		}
	}
	eng := workload.Install(hosts, workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 600, Alpha: 1.3, Max: 30_000},
		Arrival: workload.Open{FlowsPerSec: 40_000},
		Seed:    seed,
	})
	victim.BindUDP(7, func(proto.IP, uint16, []byte, int) {})
	sender := b.Hosts[meta.HostSlots[0][0][0]]
	net.OnStart(func() {
		for i := 0; i < 16; i++ {
			sender.After(sim.Time(i)*sim.Microsecond, func() { sender.SendUDP(victim.IP(), 7, 7, nil, 400) })
		}
	})
	if twoEvent {
		for _, sw := range b.Switches {
			sw.Dataplane = passThrough{}
		}
	}

	s := sim.NewScheduler(0)
	net.Attach(core.Env{Sched: s, Src: 1})
	net.Start(end)
	s.RunBefore(end)
	s.DiscardPending(core.ReleaseMessage)

	r := cutRun{events: s.Processed(), flows: eng.Collect()}
	var e snap.Encoder
	if err := net.SnapshotState(&e); err != nil {
		t.Fatal(err)
	}
	if err := eng.SnapshotState(&e); err != nil {
		t.Fatal(err)
	}
	r.state = e.Bytes()
	for _, sw := range b.Switches {
		r.rx += sw.RxPackets
		r.noRoute += sw.NoRoute
		for _, ifc := range sw.Ifaces() {
			r.egress += ifc.TxPackets + ifc.Drops
		}
	}
	if st := net.FrameStats(); st.Live != 0 {
		t.Fatalf("twoEvent=%v: %d frames leaked", twoEvent, st.Live)
	}
	return r
}

// TestCutThroughMatchesTwoEventHop is the cut-through hop's oracle: the
// same seeded Clos run with one event per switch hop and with the two-event
// hop a Dataplane forces must end in byte-identical state and identical
// flow results, and the cut run must save exactly one event per forwarded
// switch arrival. The runs include frames dropped at a blackhole and frames
// still in a switch pipeline when the run stops — the two-event hop counted
// the latter on arrival, so the cut hop must count them as the run's
// leftover events are discarded.
func TestCutThroughMatchesTwoEventHop(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		end  sim.Time
	}{{1, 400 * sim.Microsecond}, {2, 401*sim.Microsecond + 250}, {3, 700*sim.Microsecond + 123}} {
		two := runCutClos(t, tc.seed, tc.end, true)
		cut := runCutClos(t, tc.seed, tc.end, false)

		if two.noRoute == 0 {
			t.Fatalf("seed %d: no frame hit the blackhole", tc.seed)
		}
		// Two-event run: every forwarded arrival posted a pipeline step, and
		// the steps that ran each enqueued once on a switch egress.
		midPipe := two.rx - two.noRoute - two.egress
		if midPipe == 0 {
			t.Fatalf("seed %d: no frame was mid-pipeline at the end", tc.seed)
		}
		if !bytes.Equal(cut.state, two.state) {
			t.Fatalf("seed %d: cut-through state differs from the two-event hop's (rx %d vs %d, noroute %d vs %d)",
				tc.seed, cut.rx, two.rx, cut.noRoute, two.noRoute)
		}
		if cut.flows.String() != two.flows.String() {
			t.Fatalf("seed %d: flows %v, two-event hop %v", tc.seed, cut.flows, two.flows)
		}
		// The blackholed burst ends early, so every no-route frame left its
		// pipeline before the end: those arrivals are one event either way.
		fused := two.rx - two.noRoute
		if cut.events != two.events-fused {
			t.Fatalf("seed %d: cut run %d events, want %d − %d fused arrivals = %d",
				tc.seed, cut.events, two.events, fused, two.events-fused)
		}
		t.Logf("seed %d: %d vs %d events, %d fused, %d mid-pipeline, %d no-route",
			tc.seed, cut.events, two.events, fused, midPipe, two.noRoute)
	}
}
