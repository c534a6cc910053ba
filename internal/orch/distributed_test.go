package orch_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/netsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
)

const (
	distLatency = 2 * sim.Microsecond
	distEnd     = 2 * sim.Millisecond
)

// buildSite makes one single-switch network with a host and an external
// port toward its remote pair.
func buildSite(name string, localID, remoteID uint32) (*netsim.Network, *netsim.Host, *netsim.ExtPort) {
	n := netsim.New(name, 1)
	sw := n.AddSwitch("sw")
	h := n.AddHost("h", proto.HostIP(localID))
	n.ConnectHostSwitch(h, sw, 10*sim.Gbps, sim.Microsecond)
	x := n.AddExternal(sw, "x", 10*sim.Gbps, proto.HostIP(remoteID))
	n.ComputeRoutes()
	return n, h, x
}

// wireSiteApps puts periodic senders on h1/h3 and sinks on h2/h4.
func wireSiteApps(h1, h2, h3, h4 *netsim.Host) {
	sender := func(dst proto.IP, iv sim.Time) netsim.AppFunc {
		return func(h *netsim.Host) {
			var tick func()
			tick = func() {
				h.SendUDP(dst, 1, 9, nil, 400)
				h.After(iv, tick)
			}
			tick()
		}
	}
	h1.SetApp(sender(h2.IP(), 20*sim.Microsecond))
	h3.SetApp(sender(h4.IP(), 25*sim.Microsecond))
	drop := func(proto.IP, uint16, []byte, int) {}
	h2.BindUDP(9, drop)
	h4.BindUDP(9, drop)
}

// runMonolithic runs the two-pair topology in one process, coupled.
func runMonolithic(t *testing.T) (rx2, rx4 uint64) {
	t.Helper()
	n1, h1, x1 := buildSite("net1", 1, 2)
	n2, h2, x2 := buildSite("net2", 2, 1)
	n3, h3, x3 := buildSite("net3", 3, 4)
	n4, h4, x4 := buildSite("net4", 4, 3)
	wireSiteApps(h1, h2, h3, h4)
	s := orch.New()
	s.Add(n1)
	s.Add(n2)
	s.Add(n3)
	s.Add(n4)
	s.Connect("x12", distLatency,
		orch.Side{Comp: n1, Bind: x1.Bind, Sink: x1},
		orch.Side{Comp: n2, Bind: x2.Bind, Sink: x2})
	s.Connect("x34", distLatency,
		orch.Side{Comp: n3, Bind: x3.Bind, Sink: x3},
		orch.Side{Comp: n4, Bind: x4.Bind, Sink: x4})
	if err := s.RunCoupled(distEnd); err != nil {
		t.Fatal(err)
	}
	return h2.RxPackets, h4.RxPackets
}

func distCfg(seed uint64) proxy.Config {
	return proxy.Config{
		Heartbeat:   10 * time.Millisecond,
		ReadTimeout: 200 * time.Millisecond,
		BackoffMin:  time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Linger:      300 * time.Millisecond,
		MaxAttempts: 200,
		Seed:        seed,
	}
}

// runDistributed partitions the same topology across two Simulations —
// standing in for two OS processes — joined by one supervised connection
// carrying both boundary channels. Every process scripts the same
// component/connection sequence, registering its own pieces and Reserving
// the peer's, so the source-id assignment matches the monolithic run
// exactly. Both processes run their two local networks under placement p.
func runDistributed(t *testing.T, p decomp.Placement, chaos *proxy.Chaos) (rx2, rx4 uint64, sc, cc proxy.Counters) {
	t.Helper()
	n1, h1, x1 := buildSite("net1", 1, 2)
	n2, h2, x2 := buildSite("net2", 2, 1)
	n3, h3, x3 := buildSite("net3", 3, 4)
	n4, h4, x4 := buildSite("net4", 4, 3)
	wireSiteApps(h1, h2, h3, h4)

	sA := orch.New() // holds n1, n3; side A of both boundaries
	sA.Add(n1)
	sA.Reserve(1) // n2 lives in the peer
	sA.Add(n3)
	sA.Reserve(1) // n4 lives in the peer
	remA12 := sA.ConnectRemote("x12", distLatency,
		orch.Side{Comp: n1, Bind: x1.Bind, Sink: x1}, true)
	remA34 := sA.ConnectRemote("x34", distLatency,
		orch.Side{Comp: n3, Bind: x3.Bind, Sink: x3}, true)

	sB := orch.New() // holds n2, n4; side B
	sB.Reserve(1)    // n1
	sB.Add(n2)
	sB.Reserve(1) // n3
	sB.Add(n4)
	remB12 := sB.ConnectRemote("x12", distLatency,
		orch.Side{Comp: n2, Bind: x2.Bind, Sink: x2}, false)
	remB34 := sB.ConnectRemote("x34", distLatency,
		orch.Side{Comp: n4, Bind: x4.Bind, Sink: x4}, false)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	supA := proxy.NewSupervisor(distCfg(20))
	supA.AddChannel(0, remA12, proxy.RawFrameCodec{})
	supA.AddChannel(1, remA34, proxy.RawFrameCodec{})
	ccfg := distCfg(21)
	if chaos != nil {
		ccfg.DialFunc = chaos.Dialer()
	}
	supB := proxy.NewSupervisor(ccfg)
	supB.AddChannel(0, remB12, proxy.RawFrameCodec{})
	supB.AddChannel(1, remB34, proxy.RawFrameCodec{})

	errs := make(chan error, 4)
	go func() { errs <- supA.Serve(context.Background(), ln) }()
	go func() { errs <- supB.Dial(context.Background(), ln.Addr().String()) }()
	go func() { errs <- sA.RunParallel(distEnd, p) }()
	go func() { errs <- sB.RunParallel(distEnd, p) }()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("distributed run: %v", err)
		}
	}
	return h2.RxPackets, h4.RxPackets, supA.Counters(), supB.Counters()
}

// TestDistributedMatchesMonolithic is the scale-out acceptance property:
// splitting the simulation across two supervised processes changes nothing
// about the results, whether each process runs its two networks on a runner
// each or both on one runner group.
func TestDistributedMatchesMonolithic(t *testing.T) {
	m2, m4 := runMonolithic(t)
	if m2 == 0 || m4 == 0 {
		t.Fatal("no traffic in monolithic run")
	}
	for _, p := range []decomp.Placement{decomp.PerComponent(2), decomp.SingleGroup(2)} {
		d2, d4, _, cc := runDistributed(t, p, nil)
		if d2 != m2 || d4 != m4 {
			t.Fatalf("%s distributed run diverged: monolithic rx=(%d,%d) distributed rx=(%d,%d)",
				p.Name, m2, m4, d2, d4)
		}
		if cc.FramesTx == 0 || cc.FramesRx == 0 {
			t.Fatalf("%s client transport idle: %+v", p.Name, cc)
		}
	}
}

// TestDistributedSurvivesConnectionKills re-runs the distributed setup
// with deterministic connection faults on the dialer: the supervisors must
// reconnect and the results must still be identical.
func TestDistributedSurvivesConnectionKills(t *testing.T) {
	m2, m4 := runMonolithic(t)
	chaos := proxy.NewChaos(77, 2, 3000)
	d2, d4, sc, cc := runDistributed(t, decomp.PerComponent(2), chaos)
	if d2 != m2 || d4 != m4 {
		t.Fatalf("faulted distributed run diverged: monolithic rx=(%d,%d) got rx=(%d,%d)",
			m2, m4, d2, d4)
	}
	if _, faulty := chaos.Dealt(); faulty == 0 {
		t.Fatal("chaos dealt no faults")
	}
	if sc.Reconnects+cc.Reconnects == 0 {
		t.Fatalf("no reconnects despite faults: server=%+v client=%+v", sc, cc)
	}
}

// TestRunSequentialRejectsRemoteConnections: a partitioned simulation has
// no sequential execution; silently running half a topology would be a
// correctness trap.
func TestRunSequentialRejectsRemoteConnections(t *testing.T) {
	n1, _, x1 := buildSite("net1", 1, 2)
	s := orch.New()
	s.Add(n1)
	s.ConnectRemote("x12", distLatency,
		orch.Side{Comp: n1, Bind: x1.Bind, Sink: x1}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("RunSequential with a remote connection must panic")
		}
	}()
	s.RunSequential(distEnd)
}
