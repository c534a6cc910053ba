package tcpstack

import (
	"testing"
	"testing/quick"

	"repro/internal/proto"
	"repro/internal/sim"
)

// loop is a deterministic in-memory transport pair: frames sent by one
// endpoint arrive at the other after a fixed delay, optionally filtered
// (for loss/marking injection).
type loop struct {
	sched *sim.Scheduler
	a, b  *endpoint
	delay sim.Time
	// mangle, when set, can drop (return nil) or modify frames in flight.
	mangle func(f *proto.Frame) *proto.Frame
}

type endpoint struct {
	l    *loop
	ip   proto.IP
	peer *endpoint
	conn *Conn
}

func newLoop(delay sim.Time) *loop {
	l := &loop{sched: sim.NewScheduler(0), delay: delay}
	l.a = &endpoint{l: l, ip: proto.HostIP(1)}
	l.b = &endpoint{l: l, ip: proto.HostIP(2)}
	l.a.peer = l.b
	l.b.peer = l.a
	return l
}

func (e *endpoint) Now() sim.Time { return e.l.sched.Now() }
func (e *endpoint) PostRTO(c *Conn, d sim.Time) {
	e.l.sched.After(d, c.RTOFire)
}
func (e *endpoint) NewFrame() *proto.Frame { return &proto.Frame{} }
func (e *endpoint) LocalIP() proto.IP      { return e.ip }
func (e *endpoint) LocalMAC() proto.MAC    { return proto.MACFromID(uint32(e.ip)) }
func (e *endpoint) Output(f *proto.Frame) {
	peer := e.peer
	if e.l.mangle != nil {
		f = e.l.mangle(f)
		if f == nil {
			return
		}
	}
	e.l.sched.At(e.l.sched.Now()+e.l.delay, func() { peer.conn.Input(f) })
}

func (l *loop) run(until sim.Time) { l.sched.RunBefore(until) }

// flow wires a sender on a and receiver on b.
func (l *loop) flow(algo CCAlgo, bytes int64, onDone func()) (*Conn, *Conn) {
	snd := NewSender(l.a, l.b.ip, l.b.LocalMAC(), 1000, 2000, algo, bytes, onDone)
	rcv := NewReceiver(l.b, l.a.ip, l.a.LocalMAC(), 2000, 1000, algo)
	l.a.conn = snd
	l.b.conn = rcv
	return snd, rcv
}

func TestBoundedTransferCompletes(t *testing.T) {
	l := newLoop(50 * sim.Microsecond)
	done := false
	snd, rcv := l.flow(CCReno, 200_000, func() { done = true })
	snd.StartFlow()
	l.run(sim.Second)
	if !done || !snd.done {
		t.Fatalf("transfer incomplete: acked=%d", snd.sndUna)
	}
	if rcv.Delivered() != 200_000 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
	if snd.Retransmits != 0 || snd.Timeouts != 0 {
		t.Fatalf("lossless path had rtx=%d to=%d", snd.Retransmits, snd.Timeouts)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	l := newLoop(100 * sim.Microsecond)
	snd, _ := l.flow(CCReno, 0, nil)
	snd.StartFlow()
	if snd.cwnd != initialWindow {
		t.Fatalf("initial cwnd %v", snd.cwnd)
	}
	// After one RTT of acks, cwnd has roughly doubled (slow start).
	l.run(250 * sim.Microsecond)
	if snd.cwnd < 1.8*initialWindow {
		t.Fatalf("cwnd after 1 RTT = %.0f, want ~2x initial", snd.cwnd)
	}
}

func TestLossTriggersFastRetransmit(t *testing.T) {
	l := newLoop(50 * sim.Microsecond)
	dropped := false
	l.mangle = func(f *proto.Frame) *proto.Frame {
		// Drop exactly one data segment mid-flow.
		if !dropped && f.PayloadLen() > 0 && f.TCP.Seq == 5*MSS {
			dropped = true
			return nil
		}
		return f
	}
	snd, rcv := l.flow(CCReno, 300_000, nil)
	snd.StartFlow()
	l.run(sim.Second)
	if !dropped {
		t.Fatal("drop never applied")
	}
	if snd.Retransmits == 0 {
		t.Fatal("no retransmit after loss")
	}
	if snd.Timeouts != 0 {
		t.Fatalf("fast retransmit should beat the RTO, got %d timeouts", snd.Timeouts)
	}
	if rcv.Delivered() != 300_000 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
}

func TestTimeoutRecoversTailLoss(t *testing.T) {
	l := newLoop(50 * sim.Microsecond)
	// Drop the very last segment's first transmission: nothing follows it,
	// so no duplicate ACKs arrive and only the RTO can recover it.
	const total = 100_000
	lastSeq := uint32(total - total%MSS) // 99912
	dropped := false
	l.mangle = func(f *proto.Frame) *proto.Frame {
		if !dropped && f.PayloadLen() > 0 && f.TCP.Seq == lastSeq {
			dropped = true
			return nil
		}
		return f
	}
	done := false
	snd, _ := l.flow(CCReno, total, func() { done = true })
	snd.StartFlow()
	l.run(sim.Second)
	if !dropped {
		t.Fatal("tail segment never sent")
	}
	if !done {
		t.Fatalf("tail loss not recovered; timeouts=%d", snd.Timeouts)
	}
	if snd.Timeouts == 0 {
		t.Fatal("tail loss must recover via RTO")
	}
}

func TestDCTCPEchoAndAlpha(t *testing.T) {
	l := newLoop(50 * sim.Microsecond)
	// Mark every 4th data segment CE.
	n := 0
	l.mangle = func(f *proto.Frame) *proto.Frame {
		if f.PayloadLen() > 0 && f.IP.ECN() == proto.ECNECT0 {
			n++
			if n%4 == 0 {
				f.IP = f.IP.WithECN(proto.ECNCE)
			}
		}
		return f
	}
	snd, rcv := l.flow(CCDCTCP, 2_000_000, nil)
	snd.StartFlow()
	l.run(sim.Second)
	if rcv.Delivered() != 2_000_000 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
	// Alpha should estimate the ~25% marking fraction.
	if a := snd.Alpha(); a < 0.1 || a > 0.5 {
		t.Fatalf("alpha = %v, want ~0.25", a)
	}
	if snd.Retransmits != 0 {
		t.Fatal("marking must not cause retransmits")
	}
}

func TestDCTCPSetsECT(t *testing.T) {
	l := newLoop(10 * sim.Microsecond)
	sawECT, sawNotECT := false, false
	l.mangle = func(f *proto.Frame) *proto.Frame {
		if f.PayloadLen() > 0 {
			if f.IP.ECN() == proto.ECNECT0 {
				sawECT = true
			}
		} else if f.IP.ECN() == proto.ECNNotECT {
			sawNotECT = true // pure ACKs are not ECT
		}
		return f
	}
	snd, _ := l.flow(CCDCTCP, 50_000, nil)
	snd.StartFlow()
	l.run(100 * sim.Millisecond)
	if !sawECT || !sawNotECT {
		t.Fatalf("ECT marking wrong: data-ECT=%v ack-notECT=%v", sawECT, sawNotECT)
	}
}

func TestRenoHalvesOnECE(t *testing.T) {
	l := newLoop(50 * sim.Microsecond)
	markFrom := 20 * sim.Microsecond
	l.mangle = func(f *proto.Frame) *proto.Frame {
		// After warmup, mark every data segment (Reno+ECN halves once per
		// window, not once per mark).
		if f.PayloadLen() > 0 && l.sched.Now() > markFrom {
			f.IP = f.IP.WithECN(proto.ECNCE)
		}
		return f
	}
	// Reno ignores CE unless it negotiated ECN; our receiver echoes ECE on
	// CE regardless, and the Reno sender halves at most once per window.
	snd, _ := l.flow(CCReno, 0, nil)
	snd.StartFlow()
	l.run(2 * sim.Millisecond)
	before := snd.cwnd
	l.run(4 * sim.Millisecond)
	after := snd.cwnd
	// Repeated halving bounded: cwnd stays above 2 MSS and does not
	// collapse to zero.
	if after < 2*MSS {
		t.Fatalf("cwnd collapsed to %v", after)
	}
	_ = before
}

func TestSRTTEstimation(t *testing.T) {
	l := newLoop(100 * sim.Microsecond)
	snd, _ := l.flow(CCReno, 500_000, nil)
	snd.StartFlow()
	l.run(20 * sim.Millisecond)
	// RTT is exactly 200us on this loop (no queueing in the mock).
	if s := snd.srtt; s < 180*sim.Microsecond || s > 230*sim.Microsecond {
		t.Fatalf("srtt = %v, want ~200us", s)
	}
}

func TestExt64Property(t *testing.T) {
	f := func(baseRaw uint32, deltaRaw uint16, negative bool) bool {
		base := int64(baseRaw)
		delta := int64(deltaRaw)
		if negative {
			delta = -delta
		}
		target := base + delta
		if target < 0 {
			return true
		}
		return ext64(base, uint32(target)) == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnboundedFlowRunsForever(t *testing.T) {
	l := newLoop(20 * sim.Microsecond)
	// Mark every 8th segment so DCTCP keeps the window bounded — the mock
	// transport has no bandwidth limit to do it.
	n := 0
	l.mangle = func(f *proto.Frame) *proto.Frame {
		if f.PayloadLen() > 0 {
			n++
			if n%8 == 0 {
				f.IP = f.IP.WithECN(proto.ECNCE)
			}
		}
		return f
	}
	snd, rcv := l.flow(CCDCTCP, 0, nil)
	snd.StartFlow()
	l.run(5 * sim.Millisecond)
	if snd.done {
		t.Fatal("unbounded flow reported done")
	}
	if rcv.Delivered() == 0 {
		t.Fatal("no progress")
	}
	first := rcv.Delivered()
	l.run(10 * sim.Millisecond)
	if rcv.Delivered() <= first {
		t.Fatal("flow stalled")
	}
}

func TestStartFlowOnReceiverPanics(t *testing.T) {
	l := newLoop(20 * sim.Microsecond)
	_, rcv := l.flow(CCReno, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("StartFlow on receiver should panic")
		}
	}()
	rcv.StartFlow()
}
