package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// buildNet makes a one-switch network with a local host and an external
// port toward the peer network.
func buildNet(name string, localID, remoteID uint32, seed uint64) (*netsim.Network, *netsim.Host, *netsim.ExtPort) {
	n := netsim.New(name, seed)
	sw := n.AddSwitch("sw")
	h := n.AddHost("h", proto.HostIP(localID))
	n.ConnectHostSwitch(h, sw, 10*sim.Gbps, sim.Microsecond)
	x := n.AddExternal(sw, "x", 10*sim.Gbps, proto.HostIP(remoteID))
	n.ComputeRoutes()
	return n, h, x
}

// senderApp fires count datagrams at interval.
type senderApp struct {
	dst      proto.IP
	count    int
	interval sim.Time
}

func (s senderApp) Start(h *netsim.Host) {
	sent := 0
	var tick func()
	tick = func() {
		if sent >= s.count {
			return
		}
		sent++
		h.SendUDP(s.dst, 1, 9, []byte("ping"), 200)
		h.After(s.interval, tick)
	}
	tick()
}

const (
	latency = 2 * sim.Microsecond
	end     = 2 * sim.Millisecond
)

// pair is one coupled network pair: hosts, their networks and external
// ports. Pair k sends at its own rates, so two pairs carry different
// traffic.
type pair struct {
	n [2]*netsim.Network
	h [2]*netsim.Host
	x [2]*netsim.ExtPort
}

func buildPair(k int) pair {
	var p pair
	id := uint32(2*k + 1)
	seed := uint64(7 + 2*k)
	p.n[0], p.h[0], p.x[0] = buildNet(fmt.Sprintf("n%d", id), id, id+1, seed)
	p.n[1], p.h[1], p.x[1] = buildNet(fmt.Sprintf("n%d", id+1), id+1, id, seed)
	rates := [2][2]int{{50, 30}, {40, 25}}[k]
	ivs := [2][2]sim.Time{{20, 35}, {25, 30}}[k]
	p.h[0].SetApp(senderApp{dst: p.h[1].IP(), count: rates[0], interval: ivs[0] * sim.Microsecond})
	p.h[1].SetApp(senderApp{dst: p.h[0].IP(), count: rates[1], interval: ivs[1] * sim.Microsecond})
	drop := func(proto.IP, uint16, []byte, int) {}
	p.h[0].BindUDP(9, drop)
	p.h[1].BindUDP(9, drop)
	return p
}

func (p pair) rx() [2]uint64 { return [2]uint64{p.h[0].RxPackets, p.h[1].RxPackets} }

// runDirect couples the pairs' networks through ordinary in-process
// channels, both sides in one runner group: the reference every forwarded
// run must reproduce.
func runDirect(t *testing.T, pairs int) [][2]uint64 {
	t.Helper()
	r := [2]*link.Runner{link.NewRunner("p1", sim.NewScheduler(1)), link.NewRunner("p2", sim.NewScheduler(2))}
	ps := make([]pair, pairs)
	for k := range ps {
		ps[k] = buildPair(k)
		ch := link.NewChannel("x", latency)
		eps := [2]*link.Endpoint{ch.SideA(), ch.SideB()}
		for s := range eps {
			r[s].Attach(eps[s])
			eps[s].SetSink(0, int32(100+2*k+s), ps[k].x[s])
			ps[k].x[s].Bind(eps[s])
			r[s].AddComponent(ps[k].n[s], int32(10+2*k+s))
		}
	}
	g := &link.Group{}
	g.Add(r[0], r[1])
	if err := g.Run(end); err != nil {
		t.Fatal(err)
	}
	out := make([][2]uint64, pairs)
	for k := range ps {
		out[k] = ps[k].rx()
	}
	return out
}

// forwarded is what one forwarded run returns: each pair's receive counts,
// and each side's Forward result (side 0 accepted the connection, side 1
// dialed it).
type forwarded struct {
	rx   [][2]uint64
	err  [2]error
	ctrs [2]proxy.Counters
}

// runForwarded runs the same pairs split into two runner groups — standing
// in for two processes — whose channel halves Forward multiplexes over one
// loopback TCP connection. The dialing side gets extra unused channels, and
// wrap, if set, wraps its connection. It fails the test if either Forward
// call or either runner group does not return.
func runForwarded(t *testing.T, pairs, extra int, wrap func(net.Conn) net.Conn) forwarded {
	t.Helper()
	r := [2]*link.Runner{link.NewRunner("p1", sim.NewScheduler(1)), link.NewRunner("p2", sim.NewScheduler(2))}
	var rems [2][]*link.Remote
	ps := make([]pair, pairs)
	for k := range ps {
		ps[k] = buildPair(k)
		for s := 0; s < 2; s++ {
			ep, rem := link.NewHalf("x", latency)
			r[s].Attach(ep)
			ep.SetSink(0, int32(100+2*k+s), ps[k].x[s])
			ps[k].x[s].Bind(ep)
			r[s].AddComponent(ps[k].n[s], int32(10+2*k+s))
			rems[s] = append(rems[s], rem)
		}
	}
	for i := 0; i < extra; i++ {
		ep, rem := link.NewHalf("spare", latency)
		r[1].Attach(ep)
		rems[1] = append(rems[1], rem)
	}
	conns := loopback(t)
	if wrap != nil {
		conns[1] = wrap(conns[1])
	}

	var out forwarded
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			out.ctrs[s], out.err[s] = proxy.Forward(context.Background(), conns[s], rems[s])
		}()
		go func() {
			defer wg.Done()
			g := &link.Group{}
			g.Add(r[s])
			if err := g.Run(end); err != nil {
				t.Errorf("runner group %d: %v", s, err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("forwarded run never returned\n%s", buf[:runtime.Stack(buf, true)])
	}
	for k := range ps {
		out.rx = append(out.rx, ps[k].rx())
	}
	return out
}

// loopback returns both ends of one TCP connection on 127.0.0.1: the
// accepted end first, the dialed end second.
func loopback(t *testing.T) [2]net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return [2]net.Conn{srv, cli}
}

// faultConn kills or garbles its outbound byte stream at a scripted
// offset: killAt closes the connection once that many bytes are written,
// garbleAt flips one bit of the byte at that offset; -1 disables either.
// Forward writes from one goroutine at a time, so it keeps no lock.
type faultConn struct {
	net.Conn
	killAt, garbleAt int64
	written          int64
}

func (c *faultConn) Write(p []byte) (int, error) {
	start := c.written
	if c.garbleAt >= start && c.garbleAt < start+int64(len(p)) {
		p = append([]byte(nil), p...)
		p[c.garbleAt-start] ^= 0x20
	}
	if c.killAt >= 0 && start+int64(len(p)) > c.killAt {
		n, _ := c.Conn.Write(p[:max(0, c.killAt-start)])
		c.written += int64(n)
		c.Conn.Close()
		return n, net.ErrClosed
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
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

// TestForwardMatchesDirect: on a healthy connection, forwarding changes
// nothing about the simulation.
func TestForwardMatchesDirect(t *testing.T) {
	before := runtime.NumGoroutine()
	direct := runDirect(t, 1)
	f := runForwarded(t, 1, 0, nil)
	if direct[0][0] == 0 || direct[0][1] == 0 {
		t.Fatal("no traffic in direct run")
	}
	if f.err[0] != nil || f.err[1] != nil {
		t.Fatalf("forward failed: %v / %v", f.err[0], f.err[1])
	}
	if f.rx[0] != direct[0] {
		t.Fatalf("forwarded run diverged: direct rx=%v forwarded rx=%v", direct[0], f.rx[0])
	}
	for s, c := range f.ctrs {
		if c.FramesTx == 0 || c.FramesRx == 0 || c.BytesTx == 0 || c.BytesRx == 0 {
			t.Fatalf("side %d transport counters empty: %+v", s, c)
		}
	}
	if f.ctrs[0].FramesTx != f.ctrs[1].FramesRx || f.ctrs[0].BytesTx != f.ctrs[1].BytesRx {
		t.Fatalf("frames or bytes lost in transit: %+v -> %+v", f.ctrs[0], f.ctrs[1])
	}
	settleGoroutines(t, before)
}

// TestForwardMuxMatchesDirect: two spliced channels share one TCP
// connection and still match the in-process run exactly.
func TestForwardMuxMatchesDirect(t *testing.T) {
	direct := runDirect(t, 2)
	f := runForwarded(t, 2, 0, nil)
	if f.err[0] != nil || f.err[1] != nil {
		t.Fatalf("forward failed: %v / %v", f.err[0], f.err[1])
	}
	for k := range direct {
		if direct[k][0] == 0 || direct[k][1] == 0 {
			t.Fatalf("pair %d saw no traffic", k)
		}
		if f.rx[k] != direct[k] {
			t.Fatalf("muxed pair %d diverged: direct=%v muxed=%v", k, direct[k], f.rx[k])
		}
	}
}

// TestForwardKillFailsClosed: a connection killed mid-stream fails the run
// with ErrClosed on both sides, and everything returns.
func TestForwardKillFailsClosed(t *testing.T) {
	before := runtime.NumGoroutine()
	f := runForwarded(t, 1, 0, func(c net.Conn) net.Conn {
		return &faultConn{Conn: c, killAt: 2000, garbleAt: -1}
	})
	for s, err := range f.err {
		if !errors.Is(err, proxy.ErrClosed) || errors.Is(err, proxy.ErrCorrupt) {
			t.Fatalf("side %d: got %v, want ErrClosed", s, err)
		}
	}
	settleGoroutines(t, before)
}

// helloBytes is the length of one framed hello: the first frame after it
// starts at this stream offset.
const helloBytes = 8 + 17 + 7

// garbleFailsTyped flips one bit of the dialing side's outbound stream at
// offset and demands ErrCorrupt at the receiver, ErrClosed at the sender
// (whose peer hangs up), and no leaked goroutine.
func garbleFailsTyped(t *testing.T, offset int64) {
	t.Helper()
	before := runtime.NumGoroutine()
	f := runForwarded(t, 1, 0, func(c net.Conn) net.Conn {
		return &faultConn{Conn: c, killAt: -1, garbleAt: offset}
	})
	if !errors.Is(f.err[0], proxy.ErrCorrupt) {
		t.Fatalf("receiver: got %v, want ErrCorrupt", f.err[0])
	}
	if !errors.Is(f.err[1], proxy.ErrClosed) {
		t.Fatalf("sender: got %v, want ErrClosed", f.err[1])
	}
	settleGoroutines(t, before)
}

// TestForwardCorruptFailsTyped: one bit flipped in the body of the first
// frame after the hello is caught by the checksum.
func TestForwardCorruptFailsTyped(t *testing.T) { garbleFailsTyped(t, helloBytes+9) }

// TestForwardCorruptLengthFailsTyped: one bit flipped in the third byte of
// the first frame's length prefix leaves the length under the frame bound
// but past the bytes the peer sends. The check word fails the frame before
// the receiver waits for them, so nothing hangs.
func TestForwardCorruptLengthFailsTyped(t *testing.T) { garbleFailsTyped(t, helloBytes+2) }

// TestForwardHandshakeMismatch: peers passing different channel counts fail
// the hello with ErrHandshake on both sides instead of exchanging frames
// for channels the other side cannot route.
func TestForwardHandshakeMismatch(t *testing.T) {
	before := runtime.NumGoroutine()
	f := runForwarded(t, 1, 1, nil)
	for s, err := range f.err {
		if !errors.Is(err, proxy.ErrHandshake) {
			t.Fatalf("side %d: got %v, want ErrHandshake", s, err)
		}
	}
	if f.ctrs[0].FramesTx+f.ctrs[1].FramesTx != 0 {
		t.Fatalf("frames sent despite the failed hello: %+v", f.ctrs)
	}
	settleGoroutines(t, before)
}

func TestCountersTableRenders(t *testing.T) {
	tab := proxy.CountersTable(
		[]string{"server", "client"},
		[]proxy.Counters{{FramesTx: 10, BytesTx: 210}, {FramesRx: 10, BytesRx: 210}},
	)
	out := tab.String()
	for _, want := range []string{"server", "client", "ftx", "brx", "210"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}
