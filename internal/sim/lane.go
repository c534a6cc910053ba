package sim

import "fmt"

// A Lane is a FIFO of typed deliveries whose producer promises
// non-decreasing times — a simulated core's completions booked behind its
// busy-until horizon, say. However long the backlog, the lane holds exactly
// one heap entry: its head, queued as an ordinary typed delivery whose sink
// is the lane and whose key is the head's own (at, src, seq). When that
// entry fires, the lane pops the head, queues the next entry the same way
// and runs the head's sink.
//
// Order is exactly PostDelivery's. Every entry draws its seq from the
// scheduler when posted, as PostDelivery would, and all of a lane's entries
// share its src; with non-decreasing times, each entry's key is strictly
// greater than its predecessor's, so the head is always the lane's minimum
// and the heap sees every lane entry in (at, src, seq) order.
//
// Lane-held entries are pending events like any other: Pending counts them,
// DiscardPending hands their payloads to its callback and empties the lane,
// and ExportPending emits them as plain deliveries (RestorePending puts them
// back on the heap, not into a lane).
type Lane struct {
	s   *Scheduler
	src int32
	// ring is a power-of-two circular buffer; n entries start at head.
	ring []laneEntry
	head int
	n    int
}

// laneHead is the sink of a lane's heap entry. It is the Lane under a type
// of its own so that only the scheduler can fire the head.
type laneHead Lane

// laneEntry is one queued delivery, 48 bytes.
type laneEntry struct {
	at      Time
	seq     uint64
	sink    Sink
	payload Payload
}

// NewLane returns an empty lane whose deliveries order under src.
func (s *Scheduler) NewLane(src int32) *Lane { return &Lane{s: s, src: src} }

// Post queues sink.Deliver(t, payload) at the lane's tail. It orders exactly
// as PostDelivery(t, src, sink, payload) at the same call position would.
// Posting before Now or before the lane's last entry panics: the first
// would rewrite history, the second break the order the lane relies on.
func (l *Lane) Post(t Time, sink Sink, payload Payload) {
	s := l.s
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if l.n > 0 {
		if tail := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; t < tail {
			panic(fmt.Sprintf("sim: lane post at %v before its tail at %v", t, tail))
		}
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	s.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEntry{at: t, seq: s.seq, sink: sink, payload: payload}
	l.n++
	if l.n == 1 {
		s.pushDelivery(t, l.src, s.seq, (*laneHead)(l), nil)
	} else {
		s.behind++
	}
}

// Deliver fires the lane's head when its heap entry comes due.
func (k *laneHead) Deliver(at Time, _ Payload) {
	l := (*Lane)(k)
	e := l.ring[l.head]
	l.ring[l.head] = laneEntry{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.s.behind--
		l.s.pushDelivery(next.at, l.src, next.seq, k, nil)
	}
	e.sink.Deliver(at, e.payload)
}

// grow doubles the ring, unwrapping the entries to start at index 0.
func (l *Lane) grow() {
	ring := make([]laneEntry, max(16, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// discard empties the lane, dropping each entry as DiscardPending drops a
// plain delivery, and returns how many entries it held. The caller drops
// the heap entry and resets the scheduler's behind count.
func (l *Lane) discard(fn func(Payload)) int {
	n := l.n
	for ; l.n > 0; l.n-- {
		e := &l.ring[l.head]
		dropDelivery(e.at, e.sink, e.payload, fn)
		*e = laneEntry{}
		l.head = (l.head + 1) & (len(l.ring) - 1)
	}
	return n
}

// appendPending appends every entry, head first, as a plain delivery record.
func (l *Lane) appendPending(out []PendingEvent) []PendingEvent {
	for i := 0; i < l.n; i++ {
		e := &l.ring[(l.head+i)&(len(l.ring)-1)]
		out = append(out, PendingEvent{At: e.at, Src: l.src, Seq: e.seq,
			Kind: PendingDelivery, Sink: e.sink, Payload: e.payload})
	}
	return out
}
