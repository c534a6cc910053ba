package proto

import (
	"bytes"
	"testing"
)

func poolFrame(p *FramePool, payload []byte) *Frame {
	f := p.Get()
	f.Eth = Ethernet{Dst: MACFromID(2), Src: MACFromID(1)}
	f.IP = IPv4{Src: HostIP(1), Dst: HostIP(2), Proto: IPProtoUDP}
	f.UDP = UDP{SrcPort: 1, DstPort: 2}
	f.Payload = payload
	f.Seal()
	return f
}

func TestFramePoolReuseAndStats(t *testing.T) {
	var p FramePool
	f1 := p.Get()
	f1.Release()
	f2 := p.Get()
	if f2 != f1 {
		t.Fatal("pool did not reuse the released frame")
	}
	f2.Release()
	s := p.Stats()
	if s.Allocs != 1 || s.Reuses != 1 || s.Releases != 2 || s.Live != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFrameDoubleReleasePanics(t *testing.T) {
	var p FramePool
	f := p.Get()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	f.Release()
}

func TestPoollessReleaseIsNoop(t *testing.T) {
	f := &Frame{}
	f.Release()
	f.Release() // must not panic: literal frames have no pool
}

func TestReleaseZeroesAndRecyclesBuffer(t *testing.T) {
	var p FramePool
	src := poolFrame(&p, []byte("hello"))
	wire := AppendFrame(p.GetBuf(), src)
	src.Release()

	dst := p.Get()
	if err := ParseFrameInto(dst, wire); err != nil {
		t.Fatal(err)
	}
	if string(dst.Payload) != "hello" {
		t.Fatalf("payload = %q", dst.Payload)
	}
	// The parsed payload aliases the adopted wire buffer.
	if &dst.Payload[0] != &wire[len(wire)-len(dst.Payload)] {
		t.Fatal("ParseFrameInto copied the payload")
	}
	dst.Release()
	if dst.Payload != nil || dst.IP.Dst != 0 || dst.live {
		t.Fatalf("release left state behind: %+v", dst)
	}
	// The adopted buffer must come back out of GetBuf.
	got := p.GetBuf()
	if cap(got) == 0 || &got[:1][0] != &wire[:1][0] {
		t.Fatal("released frame's buffer was not recycled")
	}
}

func TestParseFrameIntoMatchesParseFrame(t *testing.T) {
	var p FramePool
	src := poolFrame(&p, []byte("payload-bytes"))
	src.VirtualPayload = 0
	wire := AppendFrame(nil, src)

	a, err := ParseFrame(append([]byte(nil), wire...))
	if err != nil {
		t.Fatal(err)
	}
	b := p.Get()
	if err := ParseFrameInto(b, append([]byte(nil), wire...)); err != nil {
		t.Fatal(err)
	}
	if a.Eth != b.Eth || a.IP != b.IP || a.UDP != b.UDP ||
		!bytes.Equal(a.Payload, b.Payload) || a.VirtualPayload != b.VirtualPayload {
		t.Fatalf("parse mismatch:\n%+v\n%+v", a, b)
	}
	b.Release()
}

func TestParseFrameIntoErrorStillAdoptsBuffer(t *testing.T) {
	var p FramePool
	f := p.Get()
	junk := make([]byte, 3) // too short for Ethernet
	if err := ParseFrameInto(f, junk); err == nil {
		t.Fatal("expected parse error")
	}
	f.Release()
	if got := p.GetBuf(); cap(got) != cap(junk) {
		t.Fatal("error path did not adopt the buffer")
	}
}

func TestCloneIsPoolless(t *testing.T) {
	var p FramePool
	f := poolFrame(&p, []byte("x"))
	g := f.Clone()
	f.Release()
	g.Release()
	g.Release() // pool-less: no double-release panic
	if s := p.Stats(); s.Live != 0 {
		t.Fatalf("live = %d", s.Live)
	}
}

func TestWireFramePool(t *testing.T) {
	b := []byte{1, 2, 3}
	w := GetWireFrame(b)
	PutWireFrame(w)
	w2 := GetWireFrame(nil)
	if w2.B != nil {
		t.Fatal("recycled wrapper kept its buffer")
	}
	PutWireFrame(w2)
}
