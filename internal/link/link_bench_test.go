package link

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// The benchmarks here pin the coupled-run message-drain hot path: a runner
// consuming already-queued messages from a peer. A change to the
// pipe/runner/channel fabric can compare them before and after with
// `go test -bench`.

const benchBatch = 64

type nopPayload struct{}

// benchConsumer wires one channel whose B side is attached to a runner and
// whose A side's pipe is written directly (bypassing endpoint bookkeeping)
// so the producer adds no measurable cost.
func benchConsumer() (r *Runner, feed *pipe, recv *Endpoint) {
	ch := NewChannel("bench", sim.Microsecond)
	r = NewRunner("consumer", sim.NewScheduler(1))
	r.Attach(ch.SideB())
	ch.SideB().SetSink(0, 7, core.SinkFunc(func(sim.Time, core.Message) {}))
	// SideA's outgoing pipe is SideB's incoming pipe.
	return r, ch.SideA().out, ch.SideB()
}

// BenchmarkDrainSync measures drainAll over pure synchronization messages:
// the per-message fabric overhead (pipe locking, wall-clock sampling,
// timestamp bookkeeping) with no payload handling at all. ns/op is per
// message.
func BenchmarkDrainSync(b *testing.B) {
	r, feed, _ := benchConsumer()
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		for i := 0; i < benchBatch; i++ {
			t += sim.Nanosecond
			feed.send(Message{T: t, Kind: KindSync})
		}
		r.drainAll()
	}
}

// BenchmarkDrainData measures drainAll over data messages plus the delivery
// events they schedule: the full receive path a coupled run pays per
// payload message (pipe, counters, scheduler insert, event dispatch).
// ns/op is per message.
func BenchmarkDrainData(b *testing.B) {
	r, feed, _ := benchConsumer()
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		for i := 0; i < benchBatch; i++ {
			t += sim.Nanosecond
			feed.send(Message{T: t, Kind: KindData, Sub: 0, Payload: nopPayload{}})
		}
		r.drainAll()
		// Execute the scheduled deliveries so the event queue stays small.
		r.sched.RunBefore(t + sim.Microsecond)
	}
}

// BenchmarkPipeSendTryRecv measures the raw pipe round trip without any
// endpoint handling: send a burst, then dequeue it one message at a time.
// ns/op is per message.
func BenchmarkPipeSendTryRecv(b *testing.B) {
	p := newPipe()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += benchBatch {
		for i := 0; i < benchBatch; i++ {
			p.send(Message{T: sim.Time(n + i), Kind: KindSync})
		}
		for {
			_, ok, _ := p.tryRecv()
			if !ok {
				break
			}
		}
	}
}

// BenchmarkCoupledPingPong runs a complete two-runner coupled simulation:
// each delivery immediately sends the token back, so the run is dominated
// by fabric overhead (sync emission, horizon math, blocking). ns/op is per
// simulated virtual millisecond of the two-runner system.
func BenchmarkCoupledPingPong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch := NewChannel("pp", 500*sim.Nanosecond)
		ra := NewRunner("a", sim.NewScheduler(1))
		rb := NewRunner("b", sim.NewScheduler(2))
		ra.Attach(ch.SideA())
		rb.Attach(ch.SideB())
		ch.SideA().SetSink(0, 10, core.SinkFunc(func(at sim.Time, m core.Message) {
			ch.SideA().Send(m, 0)
		}))
		ch.SideB().SetSink(0, 20, core.SinkFunc(func(at sim.Time, m core.Message) {
			ch.SideB().Send(m, 0)
		}))
		ra.AddComponent(&benchSeeder{port: ch.SideA()}, 5)
		g := &Group{}
		g.Add(ra, rb)
		if err := g.Run(sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

type benchSeeder struct {
	env  core.Env
	port core.Port
}

func (s *benchSeeder) Name() string        { return "seed" }
func (s *benchSeeder) Attach(env core.Env) { s.env = env }
func (s *benchSeeder) Start(end sim.Time) {
	s.env.At(0, func() { s.port.Send(nopPayload{}, 0) })
}
