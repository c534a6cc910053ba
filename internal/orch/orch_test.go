package orch_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
)

// twoNets builds two single-switch networks joined by a boundary channel,
// with a periodic sender on one side and a sink on the other.
func twoNets() (*orch.Simulation, *netsim.Host, *netsim.Host) {
	n1 := netsim.New("net1", 1)
	n2 := netsim.New("net2", 1)
	sw1, sw2 := n1.AddSwitch("sw1"), n2.AddSwitch("sw2")
	h1 := n1.AddHost("h1", proto.HostIP(1))
	h2 := n2.AddHost("h2", proto.HostIP(2))
	n1.ConnectHostSwitch(h1, sw1, 10*sim.Gbps, 1*sim.Microsecond)
	n2.ConnectHostSwitch(h2, sw2, 10*sim.Gbps, 1*sim.Microsecond)
	x1 := n1.AddExternal(sw1, "x", 10*sim.Gbps, proto.HostIP(2))
	x2 := n2.AddExternal(sw2, "x", 10*sim.Gbps, proto.HostIP(1))
	n1.ComputeRoutes()
	n2.ComputeRoutes()

	s := orch.New()
	s.Add(n1)
	s.Add(n2)
	s.Connect("x", 1*sim.Microsecond,
		orch.Side{Comp: n1, Bind: x1.Bind, Sink: x1},
		orch.Side{Comp: n2, Bind: x2.Bind, Sink: x2})

	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		var tick func()
		tick = func() {
			h.SendUDP(proto.HostIP(2), 1, 9, nil, 400)
			h.After(20*sim.Microsecond, tick)
		}
		tick()
	}))
	return s, h1, h2
}

func TestCrossNetworkSequential(t *testing.T) {
	s, h1, h2 := twoNets()
	s.RunSequential(2 * sim.Millisecond)
	if h2.RxPackets == 0 {
		t.Fatal("no packets crossed the boundary")
	}
	if h1.TxPackets != h2.RxPackets {
		t.Fatalf("tx %d != rx %d", h1.TxPackets, h2.RxPackets)
	}
}

// typeSink records the dynamic type of every message a boundary port
// receives, then hands it on. Each side has its own, so under a placed run
// only that side's runner touches it.
type typeSink struct {
	next core.Sink
	seen map[string]int
}

func (k *typeSink) Deliver(at sim.Time, m core.Message) {
	k.seen[fmt.Sprintf("%T", m)]++
	k.next.Deliver(at, m)
}

// TestBoundaryCarriesOnlyWireFrames pins the one message form of a network
// boundary: two networks joined by ExtPorts, with no setup call on either
// port, exchange traffic both ways, and only encoded *proto.WireFrame
// messages cross — never a pool-owned *proto.Frame — sequentially and
// under a two-group placement, with no frame left outstanding on either
// side.
func TestBoundaryCarriesOnlyWireFrames(t *testing.T) {
	run := func(t *testing.T, exec func(*orch.Simulation) error) {
		n1, n2 := netsim.New("net1", 1), netsim.New("net2", 1)
		sw1, sw2 := n1.AddSwitch("sw1"), n2.AddSwitch("sw2")
		h1 := n1.AddHost("h1", proto.HostIP(1))
		h2 := n2.AddHost("h2", proto.HostIP(2))
		n1.ConnectHostSwitch(h1, sw1, 10*sim.Gbps, sim.Microsecond)
		n2.ConnectHostSwitch(h2, sw2, 10*sim.Gbps, sim.Microsecond)
		x1 := n1.AddExternal(sw1, "x", 10*sim.Gbps, proto.HostIP(2))
		x2 := n2.AddExternal(sw2, "x", 10*sim.Gbps, proto.HostIP(1))
		n1.ComputeRoutes()
		n2.ComputeRoutes()
		k1 := &typeSink{next: x1, seen: map[string]int{}}
		k2 := &typeSink{next: x2, seen: map[string]int{}}
		s := orch.New()
		s.Add(n1)
		s.Add(n2)
		s.Connect("x", sim.Microsecond,
			orch.Side{Comp: n1, Bind: x1.Bind, Sink: k1},
			orch.Side{Comp: n2, Bind: x2.Bind, Sink: k2})
		// h2 echoes every datagram back, so both boundary ports receive.
		h2.BindUDP(9, func(src proto.IP, _ uint16, _ []byte, n int) { h2.SendUDP(src, 9, 1, nil, n) })
		h1.BindUDP(1, func(proto.IP, uint16, []byte, int) {})
		h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
			var tick func()
			tick = func() {
				h.SendUDP(proto.HostIP(2), 1, 9, nil, 400)
				h.After(20*sim.Microsecond, tick)
			}
			tick()
		}))
		if err := exec(s); err != nil {
			t.Fatal(err)
		}
		for side, k := range []*typeSink{k1, k2} {
			if len(k.seen) != 1 || k.seen["*proto.WireFrame"] == 0 {
				t.Errorf("side %d received %v, want only *proto.WireFrame", side+1, k.seen)
			}
		}
		for _, n := range []*netsim.Network{n1, n2} {
			if live := n.FrameStats().Live; live != 0 {
				t.Errorf("%s: %d pooled frames outstanding", n.Name(), live)
			}
		}
	}
	t.Run("sequential", func(t *testing.T) {
		run(t, func(s *orch.Simulation) error { s.RunSequential(sim.Millisecond); return nil })
	})
	t.Run("two-group", func(t *testing.T) {
		run(t, func(s *orch.Simulation) error { return s.RunParallel(sim.Millisecond, decomp.PerComponent(2)) })
	})
}

// tcPair builds two switches, the first a transparent clock, each with one
// host, joined by a 1 Gb/s link that Build cuts into a boundary when
// assign splits them. h1 queues twenty bulk datagrams toward h2 and then a
// PTP sync, so the sync waits behind them at the first switch's egress.
// The hosts return in topology order.
func tcPair(assign []int) (*netsim.Topology, *netsim.Built) {
	var topo netsim.Topology
	s0, s1 := topo.AddSwitch("s0"), topo.AddSwitch("s1")
	topo.Switches[s0].TC = true
	topo.AddHost("h1", proto.HostIP(1), s0, 10*sim.Gbps, sim.Microsecond)
	topo.AddHost("h2", proto.HostIP(2), s1, 10*sim.Gbps, sim.Microsecond)
	topo.AddLink(s0, s1, sim.Gbps, sim.Microsecond)
	b := topo.Build("tc", 1, assign, nil)
	b.Hosts[0].SetApp(netsim.AppFunc(func(h *netsim.Host) {
		for i := 0; i < 20; i++ {
			h.SendUDP(proto.HostIP(2), 1, 9, nil, 1400)
		}
		m := proto.PTPMsg{Type: proto.PTPSync, Seq: 1, Origin: h.Now()}
		h.SendUDP(proto.HostIP(2), proto.PortPTPEvent, proto.PortPTPEvent, proto.AppendPTP(nil, m), 0)
	}))
	return &topo, b
}

// TestTransparentClockAcrossBoundary: a transparent-clock switch whose
// egress is a partition boundary hands the PTP sync to the peer partition
// at enqueue, so it must write the residence first. The correction h2
// receives equals the unpartitioned fabric's, sequentially and on two
// groups, and no frame is left outstanding.
func TestTransparentClockAcrossBoundary(t *testing.T) {
	run := func(assign []int, p func(int) decomp.Placement) sim.Time {
		topo, b := tcPair(assign)
		corr := sim.Time(-1)
		b.Hosts[1].BindUDP(proto.PortPTPEvent, func(_ proto.IP, _ uint16, payload []byte, _ int) {
			if m, err := proto.ParsePTP(payload); err == nil {
				corr = m.Correction
			}
		})
		s := orch.New()
		instantiate.WirePartitions(s, topo, b, true)
		execute(t, s, p(s.NumComponents()), sim.Millisecond, orch.RunOptions{})
		if live := s.LiveFrames(); live != 0 {
			t.Fatalf("assign %v: %d frames live after the run", assign, live)
		}
		return corr
	}
	want := run(nil, singleGroup)
	if want < 10*sim.Microsecond {
		t.Fatalf("unpartitioned correction = %v, want >= 10us of queueing residence", want)
	}
	for _, p := range []func(int) decomp.Placement{singleGroup, perComponent} {
		if got := run([]int{0, 1}, p); got != want {
			t.Errorf("partitioned, %d groups: correction %v, unpartitioned %v", p(2).NumGroups(), got, want)
		}
	}
}

// TestBuildBoundaryHandsFramesOver pins the other message form of a
// network boundary: the two halves of a link that Topology.Build cut hand
// the *proto.Frame itself over, never bytes. Every frame one partition's
// pool lets go the other adopts, and no frame is left outstanding,
// sequentially and on two groups.
func TestBuildBoundaryHandsFramesOver(t *testing.T) {
	for _, p := range []func(int) decomp.Placement{singleGroup, perComponent} {
		topo, b := tcPair([]int{0, 1})
		seen := map[string]int{}
		s := orch.New()
		for _, part := range b.Parts {
			s.Add(part)
		}
		bd := b.Boundaries[0]
		s.Connect("bd", topo.Links[bd.Link].Delay,
			orch.Side{Comp: b.Parts[0], Bind: bd.PortA.Bind, Sink: bd.PortA},
			orch.Side{Comp: b.Parts[1], Bind: bd.PortB.Bind, Sink: &typeSink{next: bd.PortB, seen: seen}})
		execute(t, s, p(s.NumComponents()), sim.Millisecond, orch.RunOptions{})
		if len(seen) != 1 || seen["*proto.Frame"] != 21 {
			t.Errorf("%d groups: boundary received %v, want 21 *proto.Frame", p(2).NumGroups(), seen)
		}
		out, in := b.Parts[0].FrameStats(), b.Parts[1].FrameStats()
		if out.Out != 21 || in.In != out.Out || out.Live+in.Live != 0 {
			t.Errorf("%d groups: sender %+v, receiver %+v: want 21 frames out, as many in, none live",
				p(2).NumGroups(), out, in)
		}
	}
}

// TestSequentialIsTheOneGroupPlan pins what RunSequential keeps through the
// shared executor body: the run is published on Simulation.Group as a
// single endpoint-less runner around the returned scheduler (not left
// pointing at an earlier run's group), and that scheduler keeps ordering
// id 0 — events posted without an explicit source sort by it, so the
// recorded digests depend on it.
func TestSequentialIsTheOneGroupPlan(t *testing.T) {
	s, _, _ := twoNets()
	if err := s.RunCoupled(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	coupled := s.Group

	s, _, _ = twoNets()
	s.Group = coupled
	sched := s.RunSequential(sim.Millisecond)
	if s.Group == coupled || len(s.Group.Runners) != 1 {
		t.Fatalf("Group after RunSequential = %d runners (stale: %v), want this run's single runner",
			len(s.Group.Runners), s.Group == coupled)
	}
	if r := s.Group.Runners[0]; r.Scheduler() != sched || len(r.Endpoints()) != 0 {
		t.Fatalf("sequential runner: scheduler match %v, %d endpoints", r.Scheduler() == sched, len(r.Endpoints()))
	}
	if sched.ID() != 0 {
		t.Fatalf("sequential scheduler id = %d, want 0", sched.ID())
	}
}

// TestSequentialPanicSurfaces: RunSequential has no error return, so a
// component panic must reach the caller as a panic even though the shared
// body runs it on a runner goroutine that reports panics as errors.
func TestSequentialPanicSurfaces(t *testing.T) {
	s, h1, _ := twoNets()
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		h.After(10*sim.Microsecond, func() { panic("component exploded") })
	}))
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(p.(string), "component exploded") {
			t.Fatalf("recovered %v, want the component's panic", p)
		}
		if live := s.LiveFrames(); live != 0 {
			t.Fatalf("%d pooled frames leaked by the panicked run", live)
		}
	}()
	s.RunSequential(sim.Millisecond)
}

// TestParallelPanicKeepsTypedError: a component of a two-group run that
// panics with an error mid-stream, frames in flight, fails the run with an
// error errors.Is still matches, prefixed once with the failing runner's
// name, and every frame goes back to its pool.
func TestParallelPanicKeepsTypedError(t *testing.T) {
	s, h1, _ := twoNets()
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		var tick func()
		tick = func() {
			if h.Now() >= 100*sim.Microsecond {
				panic(fmt.Errorf("decode: %w", core.ErrUnknownPayload))
			}
			h.SendUDP(proto.HostIP(2), 1, 9, nil, 400)
			h.After(20*sim.Microsecond, tick)
		}
		tick()
	}))
	pl, err := s.Plan(decomp.PerComponent(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.Execute(sim.Millisecond, orch.RunOptions{})
	if !errors.Is(err, core.ErrUnknownPayload) {
		t.Fatalf("err = %v, want ErrUnknownPayload", err)
	}
	if n := strings.Count(err.Error(), "runner "); n != 1 {
		t.Errorf("error %q names a runner %d times, want once", err, n)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d pooled frames leaked by the panicked run", live)
	}
}

// TestCheckpointFailedResumeLeaksNothing: a checkpoint whose last delivery
// names a sink position past the end of the build's walk fails the restore
// with the typed error, and the frames re-minted for the deliveries decoded
// before it go back to their pools — the sweep runs on the error path too.
func TestCheckpointFailedResumeLeaksNothing(t *testing.T) {
	arrival := workload.Open{FlowsPerSec: 50_000}
	cs, _, _ := buildCkptSim(1, arrival)
	ck, err := cs.CheckpointSequential(sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nsinks := ckptSinkCount(t, ck)
	bad := editSection(t, ck, "events", func(sec []byte) {
		offs := deliverySinkOffsets(t, sec)
		if len(offs) < 2 {
			t.Fatal("checkpoint holds fewer than two pending deliveries")
		}
		binary.LittleEndian.PutUint32(sec[offs[len(offs)-1]:], nsinks)
	})

	n := cs.NumComponents()
	for _, p := range []decomp.Placement{decomp.SingleGroup(n), decomp.PerComponent(n)} {
		rs, _, _ := buildCkptSim(1, arrival)
		pl, err := rs.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Execute(2*sim.Millisecond, orch.RunOptions{Resume: bad}); !errors.Is(err, core.ErrUnknownSink) {
			t.Fatalf("%s: err = %v, want ErrUnknownSink", p.Name, err)
		}
		if live := rs.LiveFrames(); live != 0 {
			t.Fatalf("%s: failed resume left %d pooled frames checked out", p.Name, live)
		}
	}
}

func TestCoupledWithProfiler(t *testing.T) {
	s, _, h2 := twoNets()
	col := profiler.NewCollector()
	s.PreRun = func(g *link.Group) { col.Attach(g, 100*sim.Microsecond) }
	if err := s.RunCoupled(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h2.RxPackets == 0 {
		t.Fatal("no packets crossed the boundary")
	}
	samples := col.Samples()
	if len(samples) < 10 {
		t.Fatalf("collector gathered %d samples", len(samples))
	}
	a, err := profiler.Analyze(samples, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sims) != 2 {
		t.Fatalf("analysis covers %d sims, want 2", len(a.Sims))
	}
	if a.SimSpeed <= 0 {
		t.Fatalf("SimSpeed = %v", a.SimSpeed)
	}
	g := profiler.BuildWTPG(a)
	if len(g.Nodes) != 2 {
		t.Fatalf("WTPG nodes = %d", len(g.Nodes))
	}
}

func TestSeqMatchesCoupledAcrossBoundary(t *testing.T) {
	s1, h1a, h2a := twoNets()
	s1.RunSequential(2 * sim.Millisecond)
	s2, h1b, h2b := twoNets()
	if err := s2.RunCoupled(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h1a.TxPackets != h1b.TxPackets || h2a.RxPackets != h2b.RxPackets {
		t.Fatalf("modes diverged: seq tx/rx %d/%d, coupled %d/%d",
			h1a.TxPackets, h2a.RxPackets, h1b.TxPackets, h2b.RxPackets)
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	s := orch.New()
	n := netsim.New("n", 1)
	s.Add(n)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add should panic")
		}
	}()
	s.Add(n)
}

func TestConnectUnregisteredPanics(t *testing.T) {
	s := orch.New()
	n := netsim.New("n", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Connect with unregistered component should panic")
		}
	}()
	s.Connect("bad", sim.Microsecond,
		orch.Side{Comp: n, Bind: func(core.Port) {}, Sink: nil},
		orch.Side{Comp: n, Bind: func(core.Port) {}, Sink: nil})
}

func TestNumComponents(t *testing.T) {
	s := orch.New()
	s.Add(netsim.New("a", 1))
	s.Add(netsim.New("b", 1))
	if s.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d", s.NumComponents())
	}
}

// TestBadChannelsFailAtPlan is the API-boundary contract for channels: every
// way of registering one that cannot be wired is reported by Plan as a
// wrapped ErrBadChannel — through each of the two constructors, under a
// one-group and a per-component placement alike — instead of panicking or
// dereferencing nil halfway through Execute.
func TestBadChannelsFailAtPlan(t *testing.T) {
	const lat = sim.Microsecond
	// cfg is one end-to-end description of a two-component channel; each
	// constructor registers it its own way.
	type cfg struct {
		latency          sim.Time
		nilBind, nilSink bool
		twice            bool // register a second channel under the same name
	}
	cases := []struct {
		name string
		cfg  cfg
	}{
		{"zero latency", cfg{latency: 0}},
		{"negative latency", cfg{latency: -lat}},
		{"nil Bind", cfg{latency: lat, nilBind: true}},
		{"nil Sink", cfg{latency: lat, nilSink: true}},
		{"duplicate name", cfg{latency: lat, twice: true}},
	}
	side := func(c *chatter, k cfg) orch.Side {
		sd := orch.Side{Comp: c, Bind: func(core.Port) {}, Sink: c.sink(0)}
		if k.nilBind {
			sd.Bind = nil
		}
		if k.nilSink {
			sd.Sink = nil
		}
		return sd
	}
	constructors := []struct {
		name    string
		connect func(s *orch.Simulation, a, b *chatter, k cfg)
	}{
		{"Connect", func(s *orch.Simulation, a, b *chatter, k cfg) {
			s.Connect("x", k.latency, side(a, cfg{}), side(b, k))
		}},
		{"ConnectRemote", func(s *orch.Simulation, a, _ *chatter, k cfg) {
			s.ConnectRemote("x", k.latency, side(a, k), true)
		}},
	}
	check := func(t *testing.T, s *orch.Simulation) {
		t.Helper()
		for _, p := range []decomp.Placement{decomp.SingleGroup(2), decomp.PerComponent(2)} {
			if pl, err := s.Plan(p); !errors.Is(err, orch.ErrBadChannel) || pl != nil {
				t.Errorf("Plan(%s) = %v, %v; want nil, ErrBadChannel", p.Name, pl, err)
			}
		}
		if err := s.RunCoupled(sim.Millisecond); !errors.Is(err, orch.ErrBadChannel) {
			t.Errorf("RunCoupled = %v, want ErrBadChannel", err)
		}
	}
	build := func() (*orch.Simulation, *chatter, *chatter) {
		s := orch.New()
		a := &chatter{name: "a", period: sim.Microsecond, rng: sim.NewRand(1)}
		b := &chatter{name: "b", period: sim.Microsecond, rng: sim.NewRand(2)}
		s.Add(a)
		s.Add(b)
		return s, a, b
	}
	for _, con := range constructors {
		for _, tc := range cases {
			t.Run(con.name+"/"+tc.name, func(t *testing.T) {
				s, a, b := build()
				con.connect(s, a, b, tc.cfg)
				if tc.cfg.twice {
					con.connect(s, a, b, tc.cfg)
				}
				check(t, s)
			})
		}
	}
	t.Run("duplicate name across kinds", func(t *testing.T) {
		s, a, b := build()
		constructors[0].connect(s, a, b, cfg{latency: lat})
		constructors[1].connect(s, a, b, cfg{latency: lat})
		check(t, s)
	})

	// RunSequential has no error return and keeps its documented
	// panic-on-bad-config, now carrying the typed reason.
	s, a, b := build()
	s.Connect("x", 0, side(a, cfg{}), side(b, cfg{}))
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "bad channel \"x\"") {
			t.Errorf("RunSequential panic = %q, want the bad-channel reason", p)
		}
	}()
	s.RunSequential(sim.Millisecond)
}
