package sim

import (
	"fmt"
	"testing"
)

// Scheduler/event-queue microbenchmarks. The dominant kernel pattern in
// every substrate simulator is timer churn: pop the earliest event, whose
// callback schedules a successor slightly later (NIC DMA completions, TCP
// retransmit timers, closed-loop client think times all look like this).

// BenchmarkTimerChurn measures the pop-min-then-push-later pattern through
// the public Scheduler API with k timers in flight. ns/op is per event
// executed.
func benchmarkTimerChurn(b *testing.B, k int) {
	s := NewScheduler(1)
	// Deterministic but non-uniform deltas keep the heap from degenerating
	// into FIFO order.
	delta := func(i int) Time { return Time(100 + (i*2654435761)%1000) }
	var fns []func()
	for i := 0; i < k; i++ {
		i := i
		var fn func()
		fn = func() { s.After(delta(i), fn) }
		fns = append(fns, fn)
		s.At(Time(delta(i)), fn)
	}
	_ = fns
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Step()
	}
}

func BenchmarkTimerChurn16(b *testing.B)   { benchmarkTimerChurn(b, 16) }
func BenchmarkTimerChurn256(b *testing.B)  { benchmarkTimerChurn(b, 256) }
func BenchmarkTimerChurn4096(b *testing.B) { benchmarkTimerChurn(b, 4096) }

// BenchmarkQueueChurn measures the raw event queue (no Scheduler wrapper):
// pop the min, push a replacement later. ns/op is per pop+push pair.
func BenchmarkQueueChurn1024(b *testing.B) {
	var q eventQueue
	var seq uint64
	push := func(at Time, src int32) {
		seq++
		q.Push(eventEntry{at: at, src: src, seq: seq, del: 1})
	}
	for i := 0; i < 1024; i++ {
		push(Time(100+(i*2654435761)%100000), int32(i%7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e, ok := q.Pop()
		if !ok {
			b.Fatal("queue drained")
		}
		push(e.at+Time(100+(n*40503)%1000), e.src)
	}
}

// BenchmarkQueuePacketShape measures the raw event queue on the packet
// tier's shape: about 600 entries pending, each popped one booking its
// successor 1–2 µs ahead — the deltas the calendar wheel is sized for.
// ns/op is per pop+push pair.
func BenchmarkQueuePacketShape(b *testing.B) {
	var q eventQueue
	var seq uint64
	push := func(at Time, src int32) {
		seq++
		q.Push(eventEntry{at: at, src: src, seq: seq, del: 1})
	}
	delta := func(i int) Time { return Microsecond + Time(i*2654435761)%Microsecond }
	for i := 0; i < 600; i++ {
		push(delta(i), int32(i%7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e, ok := q.Pop()
		if !ok {
			b.Fatal("queue drained")
		}
		push(e.at+delta(n), e.src)
	}
}

// BenchmarkLaneBacklog measures ns/event at a standing backlog of k typed
// deliveries spread over four monotone producers — a detailed host's
// booked-ahead stack completions. Every delivery re-posts its producer's
// next one at that producer's tail, so the backlog stays at k. "post" queues
// them all on the heap with PostDelivery, "lane" through one Lane per
// producer; the two execute the same events in the same order.
func BenchmarkLaneBacklog(b *testing.B) {
	for _, mode := range []string{"post", "lane"} {
		for _, k := range []int{64, 4096, 131072} {
			b.Run(fmt.Sprintf("%s/%d", mode, k), func(b *testing.B) {
				bb := newBacklog(mode == "lane", k)
				if a := testing.AllocsPerRun(1000, func() { bb.s.Step() }); a != 0 {
					b.Fatalf("%.1f allocs per event in steady state", a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					bb.s.Step()
				}
			})
		}
	}
}

const backlogProducers = 4

type backlogTok struct{ p int }

func (*backlogTok) Size() int { return 0 }

type backlog struct {
	s     *Scheduler
	lanes []*Lane // nil for the PostDelivery form
	toks  [backlogProducers]backlogTok
	tails [backlogProducers]Time
	n     int
}

func newBacklog(lanes bool, k int) *backlog {
	bb := &backlog{s: NewScheduler(0)}
	for p := 0; p < backlogProducers; p++ {
		bb.toks[p].p = p
		if lanes {
			bb.lanes = append(bb.lanes, bb.s.NewLane(int32(p)))
		}
	}
	for i := 0; i < k; i++ {
		bb.post(i % backlogProducers)
	}
	return bb
}

// post books the producer's next completion 100–1099 ps after its tail.
func (bb *backlog) post(p int) {
	bb.n++
	bb.tails[p] += Time(100 + (bb.n*2654435761)%1000)
	if bb.lanes != nil {
		bb.lanes[p].Post(bb.tails[p], bb, &bb.toks[p])
	} else {
		bb.s.PostDelivery(bb.tails[p], int32(p), bb, &bb.toks[p])
	}
}

func (bb *backlog) Deliver(_ Time, pl Payload) { bb.post(pl.(*backlogTok).p) }

// BenchmarkSchedulerMixed interleaves scheduling and execution the way
// host/NIC models do: a long and a short timer per two steps.
func BenchmarkSchedulerMixed(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.After(Time(500+(n*40503)%500), func() {})
		s.After(Time(100+(n*2654435761)%400), func() {})
		s.Step()
		s.Step()
	}
}
