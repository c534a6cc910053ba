package link

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

type testMsg struct {
	seq  int
	from string
}

// pinger sends a message every interval and records everything it receives.
type pinger struct {
	name     string
	env      core.Env
	port     core.Port
	interval sim.Time
	sent     int
	trace    []string
}

func (p *pinger) Name() string        { return p.name }
func (p *pinger) Attach(env core.Env) { p.env = env }
func (p *pinger) Start(end sim.Time) {
	if p.port != nil {
		p.env.At(0, p.tick)
	}
}
func (p *pinger) tick() {
	p.port.Send(testMsg{seq: p.sent, from: p.name}, 0)
	p.sent++
	p.env.After(p.interval, p.tick)
}

func (p *pinger) Deliver(at sim.Time, m core.Message) {
	msg := m.(testMsg)
	p.trace = append(p.trace, fmt.Sprintf("%v:%s:%d@%v", at, msg.from, msg.seq, at))
}

func buildPair(latency sim.Time) (*Group, *pinger, *pinger) {
	sa, sb := sim.NewScheduler(1), sim.NewScheduler(2)
	ra, rb := NewRunner("a", sa), NewRunner("b", sb)
	ch := NewChannel("ab", latency)
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	pa := &pinger{name: "pa", port: ch.SideA(), interval: 100 * sim.Nanosecond}
	pb := &pinger{name: "pb", port: ch.SideB(), interval: 130 * sim.Nanosecond}
	ch.SideA().SetSink(0, 100, pa)
	ch.SideB().SetSink(0, 101, pb)
	ra.AddComponent(pa, 10)
	rb.AddComponent(pb, 11)
	g := &Group{}
	g.Add(ra, rb)
	return g, pa, pb
}

func TestChannelDeliveryLatency(t *testing.T) {
	g, pa, pb := buildPair(500 * sim.Nanosecond)
	if err := g.Run(1 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	// pa sends at 0, 100ns, ...; pb receives at 500, 600, 700, 800, 900ns
	// (the 1000ns delivery is at exactly end and must not run).
	if len(pb.trace) != 5 {
		t.Fatalf("pb received %d messages, want 5: %v", len(pb.trace), pb.trace)
	}
	want0 := "500.000ns:pa:0@500.000ns"
	if pb.trace[0] != want0 {
		t.Errorf("first delivery %q, want %q", pb.trace[0], want0)
	}
	// pb sends at 0,130,...,910ns; deliveries at send+500 < 1000 -> 3 msgs.
	if len(pa.trace) != 4 {
		t.Fatalf("pa received %d messages, want 4: %v", len(pa.trace), pa.trace)
	}
}

func TestCoupledDeterminism(t *testing.T) {
	run := func() ([]string, []string) {
		g, pa, pb := buildPair(200 * sim.Nanosecond)
		if err := g.Run(10 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		return pa.trace, pb.trace
	}
	a1, b1 := run()
	a2, b2 := run()
	if fmt.Sprint(a1) != fmt.Sprint(a2) || fmt.Sprint(b1) != fmt.Sprint(b2) {
		t.Fatal("coupled runs diverged across executions")
	}
	if len(a1) == 0 || len(b1) == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestCoupledMatchesDirect verifies the load-bearing property of the whole
// design: parallel coupled execution and sequential direct execution yield
// identical traces.
func TestCoupledMatchesDirect(t *testing.T) {
	g, pa, pb := buildPair(200 * sim.Nanosecond)
	if err := g.Run(5 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}

	// Sequential: one shared scheduler, DirectPorts with identical srcs.
	s := sim.NewScheduler(0)
	qa := &pinger{name: "pa", interval: 100 * sim.Nanosecond}
	qb := &pinger{name: "pb", interval: 130 * sim.Nanosecond}
	qa.port = NewDirectPort(s, 200*sim.Nanosecond, 101, qb) // delivers to pb with src 101
	qb.port = NewDirectPort(s, 200*sim.Nanosecond, 100, qa)
	qa.Attach(core.Env{Sched: s, Src: 10})
	qb.Attach(core.Env{Sched: s, Src: 11})
	qa.Start(5 * sim.Microsecond)
	qb.Start(5 * sim.Microsecond)
	for {
		at, ok := s.PeekTime()
		if !ok || at >= 5*sim.Microsecond {
			break
		}
		s.Step()
	}

	if fmt.Sprint(pa.trace) != fmt.Sprint(qa.trace) {
		t.Fatalf("pa trace diverged:\ncoupled: %v\ndirect:  %v", pa.trace, qa.trace)
	}
	if fmt.Sprint(pb.trace) != fmt.Sprint(qb.trace) {
		t.Fatalf("pb trace diverged:\ncoupled: %v\ndirect:  %v", pb.trace, qb.trace)
	}
}

func TestSyncCountersPopulated(t *testing.T) {
	g, _, _ := buildPair(100 * sim.Nanosecond)
	if err := g.Run(20 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Runners {
		c := r.Counters()
		if c.TxData == 0 || c.RxData == 0 {
			t.Errorf("runner %s: no data traffic counted: %+v", r.Name(), c)
		}
		if c.TxSync == 0 || c.RxSync == 0 {
			t.Errorf("runner %s: no sync traffic counted: %+v", r.Name(), c)
		}
	}
}

func TestTrunkMultiplexing(t *testing.T) {
	sa, sb := sim.NewScheduler(1), sim.NewScheduler(2)
	ra, rb := NewRunner("a", sa), NewRunner("b", sb)
	ch := NewChannel("trunk", 100*sim.Nanosecond)
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())

	ta, tb := ch.SideA(), ch.SideB()
	const nSub = 4
	senders := make([]*pinger, nSub)
	receivers := make([]*pinger, nSub)
	for i := 0; i < nSub; i++ {
		senders[i] = &pinger{
			name:     fmt.Sprintf("s%d", i),
			port:     ta.SubPort(uint16(i)),
			interval: sim.Time(100+i*10) * sim.Nanosecond,
		}
		receivers[i] = &pinger{name: fmt.Sprintf("r%d", i), interval: sim.Infinity}
		tb.SetSink(uint16(i), int32(200+i), receivers[i])
		ta.SetSink(uint16(i), int32(300+i), receivers[i]) // unused direction
		ra.AddComponent(senders[i], int32(20+i))
	}
	g := &Group{}
	g.Add(ra, rb)
	if err := g.Run(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for i, rc := range receivers {
		if len(rc.trace) == 0 {
			t.Fatalf("sub-channel %d delivered nothing", i)
		}
		for _, tr := range rc.trace {
			wantFrom := fmt.Sprintf(":s%d:", i)
			if !containsStr(tr, wantFrom) {
				t.Fatalf("sub-channel %d got cross-delivered message %q", i, tr)
			}
		}
	}
	// One synchronized channel carried all four logical channels: sync
	// message count should be far below 4x the single-channel case.
	if ch.SideA().Stats.TxData == 0 {
		t.Fatal("trunk carried no data")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestThreeRunnerChain(t *testing.T) {
	// a <-> b <-> c; messages relayed a->b->c.
	ss := []*sim.Scheduler{sim.NewScheduler(1), sim.NewScheduler(2), sim.NewScheduler(3)}
	ra := NewRunner("a", ss[0])
	rb := NewRunner("b", ss[1])
	rc := NewRunner("c", ss[2])
	ab := NewChannel("ab", 100*sim.Nanosecond)
	bc := NewChannel("bc", 150*sim.Nanosecond)
	ra.Attach(ab.SideA())
	rb.Attach(ab.SideB())
	rb.Attach(bc.SideA())
	rc.Attach(bc.SideB())

	src := &pinger{name: "src", port: ab.SideA(), interval: 200 * sim.Nanosecond}
	ra.AddComponent(src, 10)
	ab.SideA().SetSink(0, 100, src)

	var relayed int
	ab.SideB().SetSink(0, 101, core.SinkFunc(func(at sim.Time, m core.Message) {
		relayed++
		bc.SideA().Send(m, 0)
	}))
	bc.SideA().SetSink(0, 102, core.SinkFunc(func(sim.Time, core.Message) {}))

	final := &pinger{name: "dst", interval: sim.Infinity}
	rc.AddComponent(final, 12)
	bc.SideB().SetSink(0, 103, final)

	g := &Group{}
	g.Add(ra, rb, rc)
	if err := g.Run(3 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if relayed == 0 || len(final.trace) == 0 {
		t.Fatalf("chain carried nothing: relayed=%d final=%d", relayed, len(final.trace))
	}
	// End-to-end latency for seq 0: sent at 0, relayed at 100ns, delivered
	// at 250ns.
	want := "250.000ns:src:0@250.000ns"
	if final.trace[0] != want {
		t.Fatalf("first relayed delivery %q, want %q", final.trace[0], want)
	}
}

func TestGroupPropagatesPanic(t *testing.T) {
	sa, sb := sim.NewScheduler(1), sim.NewScheduler(2)
	ra, rb := NewRunner("a", sa), NewRunner("b", sb)
	ch := NewChannel("ab", 100*sim.Nanosecond)
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	ch.SideA().SetSink(0, 100, core.SinkFunc(func(sim.Time, core.Message) {}))
	ch.SideB().SetSink(0, 101, core.SinkFunc(func(sim.Time, core.Message) {
		panic("boom")
	}))
	bad := &pinger{name: "bad", port: ch.SideA(), interval: 100 * sim.Nanosecond}
	ra.AddComponent(bad, 10)
	g := &Group{}
	g.Add(ra, rb)
	if err := g.Run(1 * sim.Microsecond); err == nil {
		t.Fatal("expected error from panicking runner")
	}
}

func TestChannelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero latency channel should panic")
		}
	}()
	NewChannel("bad", 0)
}

func TestPipeFIFOProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		p := newPipe()
		for i, v := range vals {
			p.send(Message{T: sim.Time(v), Sub: uint16(i)})
		}
		for i := range vals {
			m, ok, _ := p.tryRecv()
			if !ok || m.Sub != uint16(i) {
				return false
			}
		}
		_, ok, _ := p.tryRecv()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipeClose(t *testing.T) {
	p := newPipe()
	p.send(Message{T: 1})
	p.close()
	if m, ok, closed := p.recv(); !ok || closed || m.T != 1 {
		t.Fatalf("recv after close should drain buffered first: %v %v %v", m, ok, closed)
	}
	if _, ok, closed := p.recv(); ok || !closed {
		t.Fatal("drained closed pipe should report closed")
	}
	if !p.empty() {
		t.Fatal("drained pipe not empty")
	}
}

func TestDirectPortValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero latency direct port should panic")
		}
	}()
	NewDirectPort(sim.NewScheduler(0), 0, 1, nil)
}

// laggedSink is a pinger that declares a reaction lag (core.Lagger).
type laggedSink struct {
	*pinger
	lag sim.Time
}

func (l laggedSink) Lag() sim.Time { return l.lag }

// TestLaggedSinkLookahead: a lagged sink is delivered at send + latency +
// lag under the coupled and the direct path alike; its endpoint's horizon
// rises by the least lag over its sinks; and a bundle that also carries a
// lag-0 sink keeps plain latency.
func TestLaggedSinkLookahead(t *testing.T) {
	const lat, lag = 500 * sim.Nanosecond, 70 * sim.Nanosecond
	ch := NewChannel("x", lat)
	b := ch.SideB()
	b.SetSink(0, 1, laggedSink{&pinger{}, lag})
	if got := b.horizon(); got != lat+lag {
		t.Errorf("horizon with one sink of lag %v = %v, want %v", lag, got, lat+lag)
	}
	b.SetSink(1, 2, laggedSink{&pinger{}, lag / 2})
	if got := b.lookahead; got != lat+lag/2 {
		t.Errorf("lookahead over lags %v and %v = %v, want %v", lag, lag/2, got, lat+lag/2)
	}
	b.SetStart(sim.Microsecond)
	if got := b.horizon(); got != sim.Microsecond+lat+lag/2 {
		t.Errorf("restored horizon = %v, want start + %v", got, lat+lag/2)
	}
	b.SetSink(2, 3, &pinger{})
	if got := b.lookahead; got != lat {
		t.Errorf("bundle with a lag-0 sub: lookahead %v, want plain latency %v", got, lat)
	}
	if got := ch.SideA().lookahead; got != lat {
		t.Errorf("side without sinks: lookahead %v, want %v", got, lat)
	}

	const end = 2 * sim.Microsecond
	g, pa, pb := buildPair(lat)
	qb := laggedSink{pb, lag}
	g.Runners[1].Endpoints()[0].SetSink(0, 101, qb)
	if err := g.Run(end); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%v:pa:0@%v", lat+lag, lat+lag); len(pb.trace) == 0 || pb.trace[0] != want {
		t.Fatalf("first lagged delivery %v, want %q", pb.trace, want)
	}

	s := sim.NewScheduler(0)
	da := &pinger{name: "pa", interval: 100 * sim.Nanosecond}
	db := &pinger{name: "pb", interval: 130 * sim.Nanosecond}
	da.port = NewDirectPort(s, lat, 101, laggedSink{db, lag})
	db.port = NewDirectPort(s, lat, 100, da)
	da.Attach(core.Env{Sched: s, Src: 10})
	db.Attach(core.Env{Sched: s, Src: 11})
	da.Start(end)
	db.Start(end)
	s.RunBefore(end)
	if fmt.Sprint(da.trace) != fmt.Sprint(pa.trace) || fmt.Sprint(db.trace) != fmt.Sprint(pb.trace) {
		t.Fatalf("direct and coupled lagged runs differ:\ncoupled %v / %v\ndirect  %v / %v", pa.trace, pb.trace, da.trace, db.trace)
	}
}
