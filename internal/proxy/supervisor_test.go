package proxy_test

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
)

func fastCfg(seed uint64) proxy.Config {
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

// settleGoroutines polls until the goroutine count returns to its
// pre-test baseline, failing the test if it never does.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runSupervised runs the two-network experiment with each side's spliced
// half owned by a Supervisor over real TCP, returning the hosts' receive
// counts and both transport counter snapshots.
func runSupervised(t *testing.T, serverCfg, clientCfg proxy.Config,
	wrapLn func(net.Listener) net.Listener) (rx1, rx2 uint64, sc, cc proxy.Counters) {
	t.Helper()
	n1, h1, x1 := buildNet("n1", 1, 2, 7)
	n2, h2, x2 := buildNet("n2", 2, 1, 7)
	h1.SetApp(senderApp{dst: h2.IP(), count: 50, interval: 20 * sim.Microsecond})
	h2.SetApp(senderApp{dst: h1.IP(), count: 30, interval: 35 * sim.Microsecond})
	h1.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})

	epA, remA := link.NewHalf("x", latency)
	epB, remB := link.NewHalf("x", latency)
	r1 := link.NewRunner("p1", sim.NewScheduler(1))
	r2 := link.NewRunner("p2", sim.NewScheduler(2))
	r1.Attach(epA)
	r2.Attach(epB)
	epA.SetSink(0, 100, x1)
	epB.SetSink(0, 101, x2)
	x1.Bind(epA)
	x2.Bind(epB)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var lnUse net.Listener = ln
	if wrapLn != nil {
		lnUse = wrapLn(ln)
	}
	supS := proxy.NewSupervisor(serverCfg)
	supS.AddChannel(0, remA, proxy.RawFrameCodec{})
	supC := proxy.NewSupervisor(clientCfg)
	supC.AddChannel(0, remB, proxy.RawFrameCodec{})
	sErr := make(chan error, 1)
	cErr := make(chan error, 1)
	go func() { sErr <- supS.Serve(context.Background(), lnUse) }()
	go func() { cErr <- supC.Dial(context.Background(), addr) }()

	r1.AddComponent(n1, 10)
	r2.AddComponent(n2, 11)
	g := &link.Group{}
	g.Add(r1, r2)
	if err := g.Run(end); err != nil {
		t.Fatal(err)
	}
	if err := <-sErr; err != nil {
		t.Fatalf("server supervisor: %v", err)
	}
	if err := <-cErr; err != nil {
		t.Fatalf("client supervisor: %v", err)
	}
	return h1.RxPackets, h2.RxPackets, supS.Counters(), supC.Counters()
}

// TestSupervisedMatchesDirect: on a healthy network, the supervised
// transport changes nothing about the simulation.
func TestSupervisedMatchesDirect(t *testing.T) {
	before := runtime.NumGoroutine()
	d1, d2 := runDirect(t)
	s1, s2, sc, cc := runSupervised(t, fastCfg(1), fastCfg(2), nil)
	if d1 == 0 || d2 == 0 {
		t.Fatal("no traffic in direct run")
	}
	if s1 != d1 || s2 != d2 {
		t.Fatalf("supervised run diverged: direct rx=(%d,%d) supervised rx=(%d,%d)", d1, d2, s1, s2)
	}
	if cc.Dials != 1 || cc.Reconnects != 0 {
		t.Fatalf("clean run dialed oddly: %+v", cc)
	}
	if sc.FramesTx == 0 || sc.FramesRx == 0 || sc.BytesTx == 0 || sc.BytesRx == 0 {
		t.Fatalf("server transport counters empty: %+v", sc)
	}
	settleGoroutines(t, before)
}

// TestSupervisedChaosBitIdentical is the tentpole acceptance test: with
// deterministic connection kills, garbles, and delays injected on BOTH
// sides of the transport, the coupled run must reconnect, resync, and
// still produce output identical to the unfaulted run — with zero leaked
// goroutines. The fault budget guarantees eventual completion, so the
// outcome is always exact: identical output or a typed error.
func TestSupervisedChaosBitIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	d1, d2 := runDirect(t)
	serverChaos := proxy.NewChaos(42, 2, 4000)
	clientChaos := proxy.NewChaos(43, 3, 4000)
	ccfg := fastCfg(3)
	ccfg.DialFunc = clientChaos.Dialer()
	s1, s2, sc, cc := runSupervised(t, fastCfg(4), ccfg, func(ln net.Listener) net.Listener {
		return proxy.FaultListener{Listener: ln, Chaos: serverChaos}
	})
	if s1 != d1 || s2 != d2 {
		t.Fatalf("chaos run diverged: direct rx=(%d,%d) chaos rx=(%d,%d)", d1, d2, s1, s2)
	}
	_, faultyS := serverChaos.Dealt()
	_, faultyC := clientChaos.Dealt()
	if faultyS+faultyC == 0 {
		t.Fatal("chaos dealt no faults; the test exercised nothing")
	}
	if sc.Reconnects+cc.Reconnects == 0 {
		t.Fatalf("no reconnects despite %d faults: server=%+v client=%+v",
			faultyS+faultyC, sc, cc)
	}
	settleGoroutines(t, before)
}

// TestSupervisedScriptedGarble: one scripted bit flip in the client's
// stream must be caught by the checksum (counted on the server), trigger a
// reconnect, and leave the result untouched.
func TestSupervisedScriptedGarble(t *testing.T) {
	d1, d2 := runDirect(t)
	var dialed atomic.Int32
	var d net.Dialer
	ccfg := fastCfg(5)
	ccfg.DialFunc = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dialed.Add(1) == 1 {
			return proxy.NewFaultConn(conn, proxy.FaultPlan{KillAt: -1, GarbleAt: 300, DelayAt: -1}), nil
		}
		return conn, nil
	}
	s1, s2, sc, cc := runSupervised(t, fastCfg(6), ccfg, nil)
	if s1 != d1 || s2 != d2 {
		t.Fatalf("garbled run diverged: direct rx=(%d,%d) got rx=(%d,%d)", d1, d2, s1, s2)
	}
	if sc.Corrupt == 0 {
		t.Fatalf("server never counted the corrupt frame: %+v", sc)
	}
	if cc.Dials < 2 || cc.Reconnects == 0 {
		t.Fatalf("client never reconnected: %+v", cc)
	}
}

// runTwoPair runs two independent network pairs; supervised mode carries
// both channels multiplexed over ONE TCP connection.
func runTwoPair(t *testing.T, supervised bool) [4]uint64 {
	t.Helper()
	n1, h1, x1 := buildNet("n1", 1, 2, 7)
	n2, h2, x2 := buildNet("n2", 2, 1, 7)
	n3, h3, x3 := buildNet("n3", 3, 4, 9)
	n4, h4, x4 := buildNet("n4", 4, 3, 9)
	h1.SetApp(senderApp{dst: h2.IP(), count: 50, interval: 20 * sim.Microsecond})
	h2.SetApp(senderApp{dst: h1.IP(), count: 30, interval: 35 * sim.Microsecond})
	h3.SetApp(senderApp{dst: h4.IP(), count: 40, interval: 25 * sim.Microsecond})
	h4.SetApp(senderApp{dst: h3.IP(), count: 25, interval: 30 * sim.Microsecond})
	drop := func(proto.IP, uint16, []byte, int) {}
	h1.BindUDP(9, drop)
	h2.BindUDP(9, drop)
	h3.BindUDP(9, drop)
	h4.BindUDP(9, drop)

	r1 := link.NewRunner("p1", sim.NewScheduler(1))
	r2 := link.NewRunner("p2", sim.NewScheduler(2))
	if !supervised {
		ch1 := link.NewChannel("x", latency)
		ch2 := link.NewChannel("y", latency)
		r1.Attach(ch1.SideA())
		r2.Attach(ch1.SideB())
		r1.Attach(ch2.SideA())
		r2.Attach(ch2.SideB())
		ch1.SideA().SetSink(0, 100, x1)
		ch1.SideB().SetSink(0, 101, x2)
		ch2.SideA().SetSink(0, 102, x3)
		ch2.SideB().SetSink(0, 103, x4)
		x1.Bind(ch1.SideA())
		x2.Bind(ch1.SideB())
		x3.Bind(ch2.SideA())
		x4.Bind(ch2.SideB())
	} else {
		epA, remA := link.NewHalf("x", latency)
		epB, remB := link.NewHalf("x", latency)
		epC, remC := link.NewHalf("y", latency)
		epD, remD := link.NewHalf("y", latency)
		r1.Attach(epA)
		r2.Attach(epB)
		r1.Attach(epC)
		r2.Attach(epD)
		epA.SetSink(0, 100, x1)
		epB.SetSink(0, 101, x2)
		epC.SetSink(0, 102, x3)
		epD.SetSink(0, 103, x4)
		x1.Bind(epA)
		x2.Bind(epB)
		x3.Bind(epC)
		x4.Bind(epD)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		supS := proxy.NewSupervisor(fastCfg(10))
		supS.AddChannel(0, remA, proxy.RawFrameCodec{})
		supS.AddChannel(1, remC, proxy.RawFrameCodec{})
		supC := proxy.NewSupervisor(fastCfg(11))
		supC.AddChannel(0, remB, proxy.RawFrameCodec{})
		supC.AddChannel(1, remD, proxy.RawFrameCodec{})
		sErr := make(chan error, 1)
		cErr := make(chan error, 1)
		go func() { sErr <- supS.Serve(context.Background(), ln) }()
		go func() { cErr <- supC.Dial(context.Background(), ln.Addr().String()) }()
		t.Cleanup(func() {
			if err := <-sErr; err != nil {
				t.Errorf("server supervisor: %v", err)
			}
			if err := <-cErr; err != nil {
				t.Errorf("client supervisor: %v", err)
			}
		})
	}
	r1.AddComponent(n1, 10)
	r1.AddComponent(n3, 12)
	r2.AddComponent(n2, 11)
	r2.AddComponent(n4, 13)
	g := &link.Group{}
	g.Add(r1, r2)
	if err := g.Run(end); err != nil {
		t.Fatal(err)
	}
	return [4]uint64{h1.RxPackets, h2.RxPackets, h3.RxPackets, h4.RxPackets}
}

// TestSupervisedMuxMatchesDirect: two spliced channels share one TCP
// connection through the supervisor mux and still match the in-process
// run exactly.
func TestSupervisedMuxMatchesDirect(t *testing.T) {
	direct := runTwoPair(t, false)
	muxed := runTwoPair(t, true)
	for i := range direct {
		if direct[i] == 0 {
			t.Fatalf("pair host %d saw no traffic", i)
		}
	}
	if muxed != direct {
		t.Fatalf("muxed run diverged: direct=%v muxed=%v", direct, muxed)
	}
}

func TestCountersTableRenders(t *testing.T) {
	tab := proxy.CountersTable(
		[]string{"server", "client"},
		[]proxy.Counters{{Dials: 1, FramesTx: 10}, {Dials: 2, Reconnects: 1, BackoffNanos: 3e6}},
	)
	out := tab.String()
	for _, want := range []string{"server", "client", "reconn", "backoff_ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}
