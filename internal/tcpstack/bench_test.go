package tcpstack

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
)

// benchXport is an allocation-free Transport for steady-state measurement:
// frames come from a pool, in-flight segments ride typed delivery events
// instead of captured closures, and every 64th data segment is dropped so
// fast retransmit keeps the congestion window in a bounded Reno sawtooth
// (an unperturbed lossless flow would grow its window — and the event
// queue — without limit).
type benchXport struct {
	sched *sim.Scheduler
	pool  proto.FramePool
	ip    proto.IP
	mac   proto.MAC
	delay sim.Time
	peer  *benchXport
	conn  *Conn
	sink  benchSink

	segs    uint64
	dropMod uint64 // drop every dropMod-th data segment; 0 disables
}

// benchSink delivers a frame to its owning endpoint's conn and releases it;
// the stack never retains input frames.
type benchSink struct{ x *benchXport }

func (k *benchSink) Deliver(_ sim.Time, m sim.Payload) {
	f := m.(*proto.Frame)
	k.x.conn.Input(f)
	f.Release()
}

func (x *benchXport) Now() sim.Time               { return x.sched.Now() }
func (x *benchXport) PostRTO(c *Conn, d sim.Time) { x.sched.After(d, c.RTOFire) }
func (x *benchXport) NewFrame() *proto.Frame      { return x.pool.Get() }
func (x *benchXport) LocalIP() proto.IP           { return x.ip }
func (x *benchXport) LocalMAC() proto.MAC         { return x.mac }

func (x *benchXport) Output(f *proto.Frame) {
	if x.dropMod > 0 && f.PayloadLen() > 0 {
		x.segs++
		if x.segs%x.dropMod == 0 {
			f.Release()
			return
		}
	}
	x.sched.PostDelivery(x.sched.Now()+x.delay, x.sched.ID(), &x.peer.sink, f)
}

// benchFlow wires an unbounded Reno sender and its receiver over the
// allocation-free transport and runs it past slow start.
func benchFlow() (*Conn, *sim.Scheduler) {
	s := sim.NewScheduler(0)
	a := &benchXport{sched: s, ip: proto.HostIP(1), mac: proto.MACFromID(1),
		delay: 50 * sim.Microsecond, dropMod: 64}
	b := &benchXport{sched: s, ip: proto.HostIP(2), mac: proto.MACFromID(2),
		delay: 50 * sim.Microsecond}
	a.peer, b.peer = b, a
	a.sink.x, b.sink.x = a, b
	snd := NewSender(a, b.ip, b.mac, 1000, 2000, CCReno, 0, nil)
	rcv := NewReceiver(b, a.ip, a.mac, 2000, 1000, CCReno)
	a.conn, b.conn = snd, rcv
	snd.StartFlow()
	s.RunBefore(100 * sim.Millisecond) // settle into the loss-bounded sawtooth
	return snd, s
}

// stepAcked advances the simulation until at least `bytes` more payload has
// been cumulatively acknowledged.
func stepAcked(snd *Conn, s *sim.Scheduler, bytes int64) {
	target := snd.Acked() + bytes
	for snd.Acked() < target {
		if !s.Step() {
			panic("tcpstack bench: flow stalled")
		}
	}
}

// BenchmarkSubstrateTCPSegment measures the per-segment cost of the TCP
// stack at steady state: one op pushes 64 KiB of acknowledged payload
// (~45 segments) through segment build, transport delivery, receiver data
// handling, ACK generation, and sender ACK processing.
func BenchmarkSubstrateTCPSegment(b *testing.B) {
	snd, s := benchFlow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepAcked(snd, s, 64*1024)
	}
}

// TestSubstrateTCPSegmentZeroAlloc asserts the steady-state segment path
// allocates nothing: pooled frames, prebound RTO firings, typed deliveries.
func TestSubstrateTCPSegmentZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	snd, s := benchFlow()
	// Extra settling so the frame pool and event queue reach their
	// steady-state high-water marks before accounting starts.
	stepAcked(snd, s, 1<<20)
	if avg := testing.AllocsPerRun(100, func() { stepAcked(snd, s, 64*1024) }); avg != 0 {
		t.Fatalf("TCP segment path allocates %.2f per 64KiB chunk, want 0", avg)
	}
}
