package proxy_test

import (
	"testing"

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

// runDirect couples the two networks through an ordinary in-process channel:
// the reference every supervised run must reproduce.
func runDirect(t *testing.T) (uint64, uint64) {
	t.Helper()
	n1, h1, x1 := buildNet("n1", 1, 2, 7)
	n2, h2, x2 := buildNet("n2", 2, 1, 7)
	h1.SetApp(senderApp{dst: h2.IP(), count: 50, interval: 20 * sim.Microsecond})
	h2.SetApp(senderApp{dst: h1.IP(), count: 30, interval: 35 * sim.Microsecond})
	h1.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})

	r1 := link.NewRunner("p1", sim.NewScheduler(1))
	r2 := link.NewRunner("p2", sim.NewScheduler(2))
	ch := link.NewChannel("x", latency)
	r1.Attach(ch.SideA())
	r2.Attach(ch.SideB())
	ch.SideA().SetSink(0, 100, x1)
	ch.SideB().SetSink(0, 101, x2)
	x1.Bind(ch.SideA())
	x2.Bind(ch.SideB())
	r1.AddComponent(n1, 10)
	r2.AddComponent(n2, 11)
	g := &link.Group{}
	g.Add(r1, r2)
	if err := g.Run(end); err != nil {
		t.Fatal(err)
	}
	return h1.RxPackets, h2.RxPackets
}

func TestCodecRoundTrip(t *testing.T) {
	f := &proto.Frame{
		Eth: proto.Ethernet{Dst: proto.MACFromID(2), Src: proto.MACFromID(1)},
		IP:  proto.IPv4{Src: proto.HostIP(1), Dst: proto.HostIP(2), Proto: proto.IPProtoUDP},
		UDP: proto.UDP{SrcPort: 1, DstPort: 9},
	}
	f.Seal()
	raw := proto.AppendFrame(nil, f)
	c := proxy.RawFrameCodec{}
	b, err := c.Encode(proto.GetWireFrame(raw))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// Decode yields the one encoded-frame type, owning a copy of the input:
	// the receiver adopts the buffer while the transport reuses b.
	got, ok := m.(*proto.WireFrame)
	if !ok {
		t.Fatalf("Decode returned %T, want *proto.WireFrame", m)
	}
	if string(got.B) != string(raw) {
		t.Fatal("codec round trip changed bytes")
	}
	if &got.B[0] == &b[0] {
		t.Fatal("decoded frame aliases the input buffer")
	}
	if _, err := c.Encode(f); err == nil {
		t.Fatal("encoding a decoded *proto.Frame should fail")
	}
	if _, err := c.Encode(badMsg{}); err == nil {
		t.Fatal("encoding a non-frame message should fail")
	}
}

type badMsg struct{}

func (badMsg) Size() int { return 0 }
