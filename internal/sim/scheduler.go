package sim

import "fmt"

// Scheduler is a deterministic discrete-event scheduler. One Scheduler backs
// one simulator component (one "process" in SplitSim terms). In sequential
// mode many components share a Scheduler; in coupled mode each component
// Runner owns one and the link layer constrains how far it may advance.
type Scheduler struct {
	id   int32 // stable source id used for event-order tiebreaks
	now  Time
	q    eventQueue
	seq  uint64
	done uint64 // events executed

	// maxExec is the timestamp of the latest event actually executed (-1
	// when none has). Now may run ahead of it — RunBefore advances the
	// clock to its limit even when the tail of the window held no
	// events — and that gap is exactly the speculation the optimistic
	// executor can retract without rollback: a message arriving at
	// t > maxExec but t < Now needs only Rewind, while t <= maxExec means
	// an already-executed event could have ordered after the newcomer and
	// state must be restored from a snapshot.
	maxExec Time

	// deliveries is the side table for typed delivery events: the queue
	// entry carries only a slot index (see eventEntry.del), the (sink,
	// payload) pair lives here and each slot is recycled through freeDel
	// when its event fires. Both slices grow to the peak number of pending
	// deliveries and are then allocation-free.
	deliveries []delivery
	freeDel    []int32

	// behind counts lane entries queued behind their lane's head: pending,
	// but not on the heap (see lane.go).
	behind int

	// namedEvts is the analogous side table for named events (negative
	// eventEntry.del values); named/namedIdx hold the handler registry.
	// See state.go.
	namedEvts []namedEvent
	freeNamed []int32
	named     []namedHandler
	namedIdx  map[string]int32
}

type delivery struct {
	sink    Sink
	payload Payload
}

// funcSink is the sink of a closure event: At/AtSrc/After post fn as a
// delivery with no payload, so every queue entry is a side-table index.
type funcSink func()

// Deliver implements Sink.
func (f funcSink) Deliver(Time, Payload) { f() }

// Discarder is a Sink that owes bookkeeping for a delivery that never
// runs. DiscardPending calls Discard with the event's time in place of
// Deliver, before the payload goes to its release callback — a sink that
// takes messages a fixed lag after they arrive (netsim's cut-through hop,
// a core.Lagger) counts there an arrival from before the run ended.
type Discarder interface {
	Sink
	Discard(at Time, payload Payload)
}

// NewScheduler returns a scheduler whose locally scheduled events use id as
// their ordering source.
func NewScheduler(id int32) *Scheduler {
	return &Scheduler{id: id, maxExec: -1}
}

// ID returns the scheduler's stable source id.
func (s *Scheduler) ID() int32 { return s.id }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events still queued, lane-held entries
// included.
func (s *Scheduler) Pending() int { return s.q.Len() + s.behind }

// Processed returns how many events have been executed.
func (s *Scheduler) Processed() uint64 { return s.done }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering events
// would destroy determinism.
func (s *Scheduler) At(t Time, fn func()) { s.AtSrc(t, s.id, fn) }

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) { s.AtSrc(s.now+d, s.id, fn) }

// AtSrc schedules fn at time t with an explicit ordering source. The link
// layer uses this to give messages arriving on different channels a stable
// order independent of goroutine interleaving.
func (s *Scheduler) AtSrc(t Time, src int32, fn func()) {
	s.PostDelivery(t, src, funcSink(fn), nil)
}

// PostDelivery schedules a typed delivery event: at time t the scheduler
// calls sink.Deliver(t, payload) directly from the queue slot. It orders
// identically to AtSrc at the same call position, but avoids the capturing
// closure a func() event would need — the channel fabric uses it for every
// data message, making steady-state message delivery allocation-free.
func (s *Scheduler) PostDelivery(t Time, src int32, sink Sink, payload Payload) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.pushDelivery(t, src, s.seq, sink, payload)
}

// pushDelivery queues a typed delivery under an already drawn ordering key.
// PostDelivery draws the key here; a Lane drew it when the entry was posted
// and pushes it when the entry reaches the lane's head.
func (s *Scheduler) pushDelivery(t Time, src int32, seq uint64, sink Sink, payload Payload) {
	var i int32
	if n := len(s.freeDel); n > 0 {
		i = s.freeDel[n-1]
		s.freeDel = s.freeDel[:n-1]
		s.deliveries[i] = delivery{sink: sink, payload: payload}
	} else {
		s.deliveries = append(s.deliveries, delivery{sink: sink, payload: payload})
		i = int32(len(s.deliveries) - 1)
	}
	s.q.Push(eventEntry{at: t, src: src, del: i + 1, seq: seq})
}

// PeekTime returns the time of the earliest pending event. ok is false when
// the queue is empty.
func (s *Scheduler) PeekTime() (t Time, ok bool) {
	e := s.q.top()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// Step executes the earliest pending event, advancing Now to its timestamp.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	e, ok := s.q.Pop()
	if ok {
		s.run(e)
	}
	return ok
}

// run executes e, just taken from the queue.
func (s *Scheduler) run(e eventEntry) {
	s.now = e.at
	s.maxExec = e.at
	s.done++
	if e.del > 0 {
		i := e.del - 1
		d := s.deliveries[i]
		s.deliveries[i] = delivery{} // drop references before recycling
		s.freeDel = append(s.freeDel, i)
		d.sink.Deliver(e.at, d.payload)
		return
	}
	i := -e.del - 1
	ne := s.namedEvts[i]
	s.namedEvts[i] = namedEvent{}
	s.freeNamed = append(s.freeNamed, i)
	s.named[ne.h].fn(ne.args)
}

// RunBefore executes every event with timestamp strictly less than limit and
// then advances Now to limit. Conservative parallel synchronization uses the
// strict bound: an event at exactly the synchronization horizon may not run,
// because a peer's message could still be delivered at that same instant and
// deterministic ordering requires all events at a timestamp to be known
// before any of them executes.
func (s *Scheduler) RunBefore(limit Time) uint64 {
	var n uint64
	for {
		e, ok := s.q.popBefore(limit)
		if !ok {
			break
		}
		s.run(e)
		n++
	}
	if s.now < limit {
		s.now = limit
	}
	return n
}

// Run executes events until the queue drains, returning the count executed.
func (s *Scheduler) Run() uint64 {
	var n uint64
	for s.Step() {
		n++
	}
	return n
}

// DiscardPending drains every still-queued event without executing it and
// returns how many were dropped. For typed delivery events, lane-held ones
// included, a Discarder sink settles its bookkeeping and the payload is
// then handed to fn (nil to ignore) so pooled resources in flight when a
// run ends — frames queued past the end time, undelivered NIC batches —
// can be returned to their pools. Closure and named events are dropped
// silently; Now does not advance. Every lane is left empty, and the side
// tables and their free lists are reset.
func (s *Scheduler) DiscardPending(fn func(Payload)) int {
	n := 0
	for e := s.q.top(); e != nil; e = s.q.top() {
		if e.del > 0 {
			d := s.deliveries[e.del-1]
			switch k := d.sink.(type) {
			case *laneHead:
				n += (*Lane)(k).discard(fn) - 1 // the head entry is counted below
			case funcSink: // a closure carries no payload to release
			default:
				dropDelivery(e.at, d.sink, d.payload, fn)
			}
		}
		s.q.Pop()
		n++
	}
	s.behind = 0
	s.deliveries = s.deliveries[:0]
	s.freeDel = s.freeDel[:0]
	s.namedEvts = s.namedEvts[:0]
	s.freeNamed = s.freeNamed[:0]
	return n
}

// dropDelivery drops one undelivered typed delivery: a Discarder sink
// settles first, then fn, when non-nil, takes the payload.
func dropDelivery(at Time, sink Sink, p Payload, fn func(Payload)) {
	if k, ok := sink.(Discarder); ok {
		k.Discard(at, p)
	}
	if fn != nil {
		fn(p)
	}
}
