package sim

import (
	"testing"
	"testing/quick"
)

// TestPostOrdersLikeAtSrc verifies that closure-free events interleave with
// closure events exactly as AtSrc events would: the ordering triple
// (time, src, seq) must be blind to which API scheduled an event.
func TestPostOrdersLikeAtSrc(t *testing.T) {
	run := func(post bool) []int {
		s := NewScheduler(1)
		var order []int
		rec := func(i int) func() { return func() { order = append(order, i) } }
		h := s.RegisterNamed("rec", func(a NamedArgs) { order = append(order, int(a[0])) })
		deliver := sinkFunc(func(_ Time, p Payload) { order = append(order, int(p.(idTok))) })
		// Same times and sources, alternating APIs in one run.
		s.AtSrc(30, 2, rec(0))
		if post {
			s.PostNamed(10, 5, h, NamedArgs{1})
			s.PostDelivery(10, 3, deliver, idTok(2))
		} else {
			s.AtSrc(10, 5, rec(1))
			s.AtSrc(10, 3, rec(2))
		}
		s.At(20, rec(3))
		// Same time+src as rec(3): seq breaks the tie.
		if post {
			s.PostDelivery(20, s.ID(), deliver, idTok(4))
		} else {
			s.After(20, rec(4))
		}
		s.Run()
		return order
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) || len(want) != 5 {
		t.Fatalf("post run %v, AtSrc run %v: want 5 events each", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post order %v != AtSrc order %v", got, want)
		}
	}
}

type idTok int

// TestPostCountsAsPending covers queue accounting through the hole state:
// Pending must stay exact across pop/push cycles.
func TestPostCountsAsPending(t *testing.T) {
	s := NewScheduler(1)
	s.At(10, func() { s.At(20, func() {}) })
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if !s.Step() {
		t.Fatal("Step should run the posted event")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending after reschedule = %d, want 1", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 || s.Processed() != 2 {
		t.Fatalf("Pending=%d Processed=%d, want 0,2", s.Pending(), s.Processed())
	}
}

// Property: interleaved pushes and pops (the replace-top fast path plus
// deferred hole filling) still pop a globally sorted sequence.
func TestEventQueueInterleavedProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var q eventQueue
		var seq uint64
		var last eventEntry
		var havePopped bool
		for _, op := range ops {
			if op%3 == 0 && q.Len() > 0 {
				e, ok := q.Pop()
				if !ok {
					return false
				}
				if havePopped && e.at < last.at {
					// Not globally sorted: pops interleaved with pushes may
					// legally return earlier items pushed later, but never
					// items earlier than a pushed-before-popped bound. Use
					// the heap invariant instead: e must be <= current top.
					_ = e
				}
				if top := q.top(); top != nil && entryLess(top, &e) {
					return false // popped element was not the minimum
				}
				last, havePopped = e, true
			} else {
				seq++
				q.Push(eventEntry{at: Time(op % 97), src: int32(op % 5), seq: seq})
			}
		}
		// Drain: remainder must come out fully sorted.
		var prev *eventEntry
		for q.Len() > 0 {
			e, ok := q.Pop()
			if !ok {
				return false
			}
			if prev != nil && entryLess(&e, prev) {
				return false
			}
			cp := e
			prev = &cp
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
