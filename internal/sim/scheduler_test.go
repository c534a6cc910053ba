package sim

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(0)
	var got []int
	s.At(30*Nanosecond, func() { got = append(got, 3) })
	s.At(10*Nanosecond, func() { got = append(got, 1) })
	s.At(20*Nanosecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if s.Now() != 30*Nanosecond {
		t.Errorf("Now() = %v, want 30ns", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", s.Processed())
	}
}

func TestSchedulerSameTimeFIFO(t *testing.T) {
	// Events with equal (time, src) must run in scheduling order.
	s := NewScheduler(0)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Nanosecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered at %d: %v", i, got[:i+1])
		}
	}
}

func TestSchedulerSrcTiebreak(t *testing.T) {
	s := NewScheduler(5)
	var got []int32
	s.AtSrc(time1ns(), 9, func() { got = append(got, 9) })
	s.AtSrc(time1ns(), 2, func() { got = append(got, 2) })
	s.AtSrc(time1ns(), 7, func() { got = append(got, 7) })
	s.Run()
	want := []int32{2, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("src tiebreak broken: got %v want %v", got, want)
		}
	}
}

func time1ns() Time { return 1 * Nanosecond }

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler(0)
	s.At(10*Nanosecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.At(5*Nanosecond, func() {})
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(1*Microsecond, tick)
		}
	}
	s.At(0, tick)
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if s.Now() != 9*Microsecond {
		t.Fatalf("Now() = %v, want 9us", s.Now())
	}
}

// TestSchedulerRunBefore checks the strict bound the conservative runner
// relies on: an event at exactly the limit stays queued, and Now advances to
// the limit even across an empty tail of the window.
func TestSchedulerRunBefore(t *testing.T) {
	s := NewScheduler(0)
	ran := 0
	for _, us := range []Time{1, 2, 3, 4, 5, 9, 10} {
		s.At(us*Microsecond, func() { ran++ })
	}
	if n := s.RunBefore(5 * Microsecond); n != 4 || ran != 4 {
		t.Fatalf("RunBefore(5us) executed %d events (cb %d), want 4", n, ran)
	}
	if s.Now() != 5*Microsecond {
		t.Fatalf("Now() = %v, want 5us", s.Now())
	}
	if n := s.RunBefore(8 * Microsecond); n != 1 || s.Now() != 8*Microsecond {
		t.Fatalf("RunBefore(8us) executed %d events, Now %v; want 1, 8us", n, s.Now())
	}
	if s.Pending() != 2 || s.MaxExec() != 5*Microsecond {
		t.Fatalf("Pending %d MaxExec %v, want 2, 5us", s.Pending(), s.MaxExec())
	}
}

// TestEventEntrySize pins the heap entry: every sift copies it, and with
// no pointer word in it the GC never scans the heap.
func TestEventEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(eventEntry{}); n != 24 {
		t.Fatalf("eventEntry is %d bytes, want 24", n)
	}
}

// discardSink records the Discard calls DiscardPending makes.
type discardSink struct{ at []Time }

func (k *discardSink) Deliver(Time, Payload)      { panic("a discarded event ran") }
func (k *discardSink) Discard(at Time, _ Payload) { k.at = append(k.at, at) }

// TestClosureEventStaysUnexportable holds the closure event, now a delivery
// to a funcSink, to its old contract: ExportPending fails with
// ErrClosureEvent, and DiscardPending drops it without handing anything to
// its release callback, while a Discarder sink is told each dropped event's
// time before its payload is released.
func TestClosureEventStaysUnexportable(t *testing.T) {
	s := NewScheduler(1)
	k := &discardSink{}
	s.PostDelivery(5, 1, k, idTok(7))
	s.At(10, func() { t.Fatal("a discarded closure ran") })
	s.PostDelivery(15, 1, k, idTok(8))
	if _, err := s.ExportPending(); !errors.Is(err, ErrClosureEvent) {
		t.Fatalf("ExportPending with a closure: err %v, want ErrClosureEvent", err)
	}
	var released []Payload
	if n := s.DiscardPending(func(p Payload) { released = append(released, p) }); n != 3 {
		t.Fatalf("DiscardPending dropped %d, want 3", n)
	}
	if len(released) != 2 || len(k.at) != 2 {
		t.Fatalf("released %v, Discard at %v: want the two deliveries only", released, k.at)
	}
	slices.Sort(k.at)
	if k.at[0] != 5 || k.at[1] != 15 {
		t.Fatalf("Discard at %v, want [5 15]", k.at)
	}
	for _, p := range released {
		if _, ok := p.(idTok); !ok {
			t.Fatalf("release callback got %T, want only delivery payloads", p)
		}
	}
}

// Property: popping events always yields a sequence sorted by (time,src,seq).
func TestEventQueueSortedProperty(t *testing.T) {
	f := func(times []uint16, srcs []uint8) bool {
		n := len(times)
		if len(srcs) < n {
			n = len(srcs)
		}
		if n == 0 {
			return true
		}
		q := &eventQueue{}
		for i := 0; i < n; i++ {
			q.Push(eventEntry{at: Time(times[i]), src: int32(srcs[i]), seq: uint64(i)})
		}
		var popped []eventEntry
		for q.Len() > 0 {
			e, ok := q.Pop()
			if !ok {
				return false
			}
			popped = append(popped, e)
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool {
			return entryLess(&popped[i], &popped[j])
		}) && len(popped) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the scheduler executes any batch of future events in
// nondecreasing time order and ends at the max time.
func TestSchedulerTimeMonotoneProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler(0)
		var seen []Time
		var max Time
		for _, o := range offsets {
			at := Time(o) * Nanosecond
			if at > max {
				max = at
			}
			s.At(at, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
