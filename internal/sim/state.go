package sim

import (
	"errors"
	"fmt"
)

// This file is the kernel half of the explicit-state contract: pending
// events become exportable records, and components that used to capture
// mutable state in func() closures register named handlers instead, so a
// scheduler's queue (plus its clock and PRNG) can serialize and rebuild.
//
// A named event is the closure-free analogue of a typed delivery: the queue
// entry stores a negative index into a side table holding (handler id,
// packed args). Handlers are registered once per scheduler under a unique
// name; the name — not the func pointer — is what a checkpoint records, and
// a freshly built scheduler resolves it back to the re-registered handler.

// ErrClosureEvent reports a pending event that cannot be exported because
// it is a raw func() closure (At/AtSrc/After) rather than a typed delivery
// or named event. Components holding such events are not checkpointable.
var ErrClosureEvent = errors.New("sim: pending closure event is not exportable")

// NamedArgs is the fixed argument record a named event carries. Three words
// cover every migrated call site (addresses, flow ids, counts); anything
// larger belongs in component state, not in the event.
type NamedArgs [3]uint64

type namedHandler struct {
	name string
	fn   func(NamedArgs)
}

type namedEvent struct {
	h    int32
	args NamedArgs
}

// RegisterNamed registers fn under name and returns the handle PostNamed
// takes. Names must be unique per scheduler; registering a duplicate
// panics, because two components silently sharing a handler name would
// corrupt restores. Registration order must be deterministic (it is: it
// follows component attach order), but handles themselves never serialize —
// only names do.
func (s *Scheduler) RegisterNamed(name string, fn func(NamedArgs)) int32 {
	if s.namedIdx == nil {
		s.namedIdx = make(map[string]int32)
	}
	if _, dup := s.namedIdx[name]; dup {
		panic(fmt.Sprintf("sim: named event %q registered twice", name))
	}
	h := int32(len(s.named))
	s.named = append(s.named, namedHandler{name: name, fn: fn})
	s.namedIdx[name] = h
	return h
}

// LookupNamed resolves a handler name to its handle.
func (s *Scheduler) LookupNamed(name string) (int32, bool) {
	h, ok := s.namedIdx[name]
	return h, ok
}

// PostNamed schedules handler h to run at time t with args. It orders
// identically to AtSrc at the same call position and allocates nothing in
// steady state (the side-table slot is recycled when the event fires).
func (s *Scheduler) PostNamed(t Time, src int32, h int32, args NamedArgs) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if h < 0 || int(h) >= len(s.named) {
		panic(fmt.Sprintf("sim: PostNamed with unregistered handle %d", h))
	}
	s.seq++
	var i int32
	if n := len(s.freeNamed); n > 0 {
		i = s.freeNamed[n-1]
		s.freeNamed = s.freeNamed[:n-1]
		s.namedEvts[i] = namedEvent{h: h, args: args}
	} else {
		s.namedEvts = append(s.namedEvts, namedEvent{h: h, args: args})
		i = int32(len(s.namedEvts) - 1)
	}
	s.q.Push(eventEntry{at: t, src: src, del: -(i + 1), seq: s.seq})
}

// PendingEvent is one exported queue entry in restorable form.
type PendingEvent struct {
	At  Time
	Src int32
	Seq uint64
	// Kind discriminates the payload: 0 = typed delivery (Sink/Payload
	// set), 1 = named event (Handler/Args set).
	Kind uint8

	Sink    Sink
	Payload Payload

	Handler string
	Args    NamedArgs
}

// Event kinds in PendingEvent.Kind.
const (
	PendingDelivery uint8 = 0
	PendingNamed    uint8 = 1
)

// ExportPending returns every queued event as a restorable record. Any
// closure event (At/AtSrc/After) makes the queue unexportable and returns
// ErrClosureEvent wrapped with the event time, because a func pointer
// cannot be serialized. Lane-held entries export as ordinary deliveries
// under their own (At, Src, Seq); lanes themselves never appear. The queue
// is not modified; records come back in queue order, not time order —
// callers sort.
func (s *Scheduler) ExportPending() ([]PendingEvent, error) {
	out, err := s.ExportPendingInto(make([]PendingEvent, 0, s.Pending()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StartAt initializes a fresh scheduler's clock to t, so a restored run
// resumes at the checkpoint horizon. It refuses to rewrite history: the
// queue must be empty and the clock unadvanced.
func (s *Scheduler) StartAt(t Time) {
	if s.Pending() != 0 {
		panic("sim: StartAt on a scheduler with queued events")
	}
	if s.now != 0 && s.now != t {
		panic(fmt.Sprintf("sim: StartAt(%v) on a scheduler already at %v", t, s.now))
	}
	s.now = t
}

// State returns the generator's internal state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a generator to a previously captured state.
func (r *Rand) SetState(s uint64) { r.state = s }
