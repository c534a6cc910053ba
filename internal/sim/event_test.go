package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refQueue is the reference the calendar queue is checked against: a plain
// slice, searched linearly for its (at, src, seq) minimum.
type refQueue []eventEntry

func (r refQueue) min() int {
	m := 0
	for i := range r {
		if entryLess(&r[i], &r[m]) {
			m = i
		}
	}
	return m
}

func (r *refQueue) pop() eventEntry {
	m := r.min()
	e := (*r)[m]
	*r = slices.Delete(*r, m, m+1)
	return e
}

// queueTime draws the next push time around base, the time of the last pop:
// mostly the packet tier's 0–2 µs ahead, plus ties deeper than bucketCap in
// one bucket, entries beyond the window, Infinity, and entries before the
// cursor.
func queueTime(rng *Rand, base Time) Time {
	switch k := rng.Intn(100); {
	case k < 50:
		return base + Time(rng.Int63n(int64(2*Microsecond)))
	case k < 70: // one bucket, often one instant
		return base&^(1<<bucketBits-1) + Time(rng.Intn(4))*Time(rng.Intn(1<<bucketBits))
	case k < 80:
		return base + wheelSize<<bucketBits + Time(rng.Int63n(int64(Millisecond)))
	case k < 83:
		return Infinity
	default:
		return base - Time(rng.Int63n(int64(base)+1))
	}
}

// TestEventQueueMatchesReference drives the calendar queue and a sorted
// reference with seeded random op streams — ties past the bucket cap, far
// and Infinity entries, pushes before the cursor — and requires the same
// minimum on every top and pop, the same length, and a visit that reaches
// every entry exactly once. A second phase runs the same kinds of times
// through a Scheduler with export, discard and restore cycles.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRand(seed)
		var q eventQueue
		var ref refQueue
		var seq uint64
		var base Time
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(100); {
			case k < 55:
				seq++
				e := eventEntry{at: queueTime(rng, base), src: int32(rng.Intn(3)), seq: seq, del: 1}
				q.Push(e)
				ref = append(ref, e)
			case k < 95:
				if len(ref) == 0 {
					if _, ok := q.Pop(); ok {
						t.Fatalf("seed %d op %d: pop from an empty queue succeeded", seed, op)
					}
					continue
				}
				want := ref[ref.min()]
				if top := q.top(); top == nil || *top != want {
					t.Fatalf("seed %d op %d: top %v, want %v", seed, op, top, want)
				}
				got, ok := q.Pop()
				if ref.pop(); !ok || got != want {
					t.Fatalf("seed %d op %d: pop %v, want %v", seed, op, got, want)
				}
				if got.at != Infinity {
					base = got.at
				}
			default:
				checkVisit(t, &q, ref, fmt.Sprintf("seed %d op %d", seed, op))
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			want := ref.pop()
			if got, ok := q.Pop(); !ok || got != want {
				t.Fatalf("seed %d drain: pop %v, want %v", seed, got, want)
			}
		}
	}

	for seed := uint64(1); seed <= 20; seed++ {
		checkSchedulerReference(t, seed)
	}
}

// checkVisit requires q.visit to reach exactly ref's entries, each once.
func checkVisit(t *testing.T, q *eventQueue, ref refQueue, at string) {
	t.Helper()
	var got []eventEntry
	q.visit(func(e *eventEntry) bool { got = append(got, *e); return true })
	want := slices.Clone(ref)
	cmp := func(a, b eventEntry) int { return int(a.seq) - int(b.seq) }
	slices.SortFunc(got, cmp)
	slices.SortFunc(want, cmp)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: visit reached %d entries, want the %d queued, each once", at, len(got), len(want))
	}
}

// refEvent is one pending named event of the scheduler phase.
type refEvent struct {
	at  Time
	src int32
	seq uint64
	id  uint64
}

func (a refEvent) less(b refEvent) bool {
	return entryLess(&eventEntry{at: a.at, src: a.src, seq: a.seq}, &eventEntry{at: b.at, src: b.src, seq: b.seq})
}

// checkSchedulerReference posts named events at queueTime-shaped times
// (never before Now), steps, and now and then exports a restore point or
// rolls back to one: DiscardPending, RestoreMark, RestorePending — the
// optimistic executor's cycle, which re-posts entries before the cursor.
// Every executed event must be the reference minimum, and every export
// must hold each pending event exactly once.
func checkSchedulerReference(t *testing.T, seed uint64) {
	rng := NewRand(seed)
	s := NewScheduler(0)
	var ran []uint64
	h := s.RegisterNamed("rec", func(a NamedArgs) { ran = append(ran, a[0]) })
	var ref []refEvent
	var id uint64
	type restorePoint struct {
		mark Mark
		evs  []PendingEvent
		ref  []refEvent
	}
	var rp *restorePoint
	var buf []PendingEvent
	for op := 0; op < 3000; op++ {
		at := fmt.Sprintf("seed %d op %d", seed, op)
		switch k := rng.Intn(100); {
		case k < 50:
			tm := max(queueTime(rng, s.Now()), s.Now())
			id++
			src := int32(rng.Intn(3))
			s.PostNamed(tm, src, h, NamedArgs{id})
			ref = append(ref, refEvent{at: tm, src: src, seq: s.CaptureMark().Seq, id: id})
		case k < 90:
			if len(ref) == 0 {
				if s.Step() {
					t.Fatalf("%s: Step ran an event on an empty queue", at)
				}
				continue
			}
			m := 0
			for i := range ref {
				if ref[i].less(ref[m]) {
					m = i
				}
			}
			want := ref[m]
			if want.at == Infinity {
				continue // Now must stay finite for queueTime
			}
			ref = slices.Delete(ref, m, m+1)
			ran = ran[:0]
			if !s.Step() || len(ran) != 1 || ran[0] != want.id || s.Now() != want.at {
				t.Fatalf("%s: ran %v at %v, want event %d at %v", at, ran, s.Now(), want.id, want.at)
			}
		case k < 95:
			var err error
			if buf, err = s.ExportPendingInto(buf); err != nil {
				t.Fatal(err)
			}
			seen := map[uint64]bool{}
			for _, ev := range buf {
				if seen[ev.Args[0]] {
					t.Fatalf("%s: event %d exported twice", at, ev.Args[0])
				}
				seen[ev.Args[0]] = true
			}
			if len(seen) != len(ref) {
				t.Fatalf("%s: exported %d events, %d pending", at, len(seen), len(ref))
			}
			for _, r := range ref {
				if !seen[r.id] {
					t.Fatalf("%s: pending event %d not exported", at, r.id)
				}
			}
			rp = &restorePoint{mark: s.CaptureMark(), evs: slices.Clone(buf), ref: slices.Clone(ref)}
		default:
			if rp == nil {
				continue
			}
			if n := s.DiscardPending(nil); n != len(ref) {
				t.Fatalf("%s: DiscardPending dropped %d, want %d", at, n, len(ref))
			}
			s.RestoreMark(rp.mark)
			if err := s.RestorePending(rp.evs); err != nil {
				t.Fatal(err)
			}
			ref = slices.Clone(rp.ref)
		}
		if s.Pending() != len(ref) {
			t.Fatalf("%s: Pending %d, want %d", at, s.Pending(), len(ref))
		}
	}
}
