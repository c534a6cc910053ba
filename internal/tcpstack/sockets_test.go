package tcpstack

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
)

// TestSocketsDemux: binding a UDP port twice panics; Deliver hands a
// datagram to its port's handler and a segment to the connection keyed by
// its source address and ports; an unbound port or an unknown connection
// drops the frame.
func TestSocketsDemux(t *testing.T) {
	l := newLoop(sim.Microsecond)
	_, rcv := l.flow(CCReno, 0, nil)
	var s Sockets // the zero value is ready to use

	var got []uint16
	s.BindUDP(7, func(src proto.IP, sport uint16, p []byte, virt int) {
		if src != l.a.ip || string(p) != "hi" || virt != 5 {
			t.Errorf("UDP handler got %v %q %d", src, p, virt)
		}
		got = append(got, sport)
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second BindUDP(7) did not panic")
			}
		}()
		s.BindUDP(7, func(proto.IP, uint16, []byte, int) {})
	}()
	s.Add(rcv)
	if c := s.Lookup(l.a.ip, 1000, 2000); c != rcv {
		t.Fatalf("Lookup(a, 1000, 2000) = %p, want the receiver %p", c, rcv)
	}

	udp := func(sport, dport uint16) *proto.Frame {
		f := &proto.Frame{
			IP:  proto.IPv4{Src: l.a.ip, Dst: l.b.ip, Proto: proto.IPProtoUDP},
			UDP: proto.UDP{SrcPort: sport, DstPort: dport},
		}
		f.Payload, f.VirtualPayload = []byte("hi"), 5
		return f.Seal()
	}
	tcp := func(sport uint16, bytes int) *proto.Frame {
		f := &proto.Frame{
			IP:  proto.IPv4{Src: l.a.ip, Dst: l.b.ip, Proto: proto.IPProtoTCP},
			TCP: proto.TCP{SrcPort: sport, DstPort: 2000, Seq: uint32(rcv.Delivered())},
		}
		f.VirtualPayload = bytes
		return f.Seal()
	}

	s.Deliver(udp(9, 7))
	s.Deliver(udp(9, 8)) // unbound port
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("UDP deliveries from source ports %v, want [9]", got)
	}
	s.Deliver(tcp(1000, 100))
	s.Deliver(tcp(1001, 50)) // no connection from port 1001
	if d := rcv.Delivered(); d != 100 {
		t.Fatalf("receiver delivered %d bytes, want 100", d)
	}
}
