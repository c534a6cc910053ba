package sim

// The event queue is a 4-ary min-heap with a total, deterministic order:
// events are compared by (time, source, sequence). Source identifies who
// scheduled the event (the local component or an input channel), sequence is
// a per-scheduler monotone counter. Because every tiebreak is explicit, a
// simulation produces the same event order regardless of goroutine
// interleaving, which is what makes coupled (parallel) and sequential
// execution bit-identical.
//
// Two layout choices matter for the hot path:
//
//   - Entries are stored by value and hold no pointer, so scheduling
//     allocates nothing beyond the queue slot and its side-table slot (and,
//     for a closure event, the closure itself), and the GC never scans the
//     heap.
//   - The heap is 4-ary rather than binary: half the depth means half the
//     move chain on every sift, and the four children sit in adjacent cache
//     lines, which measurably beats the binary layout for the timer-churn
//     pattern that dominates the substrate simulators.
//
// Pop additionally leaves a "hole" at the root instead of restructuring
// immediately. The kernel's dominant pattern is pop-min-then-push-later (an
// event's callback schedules its successor), and a push into the hole is a
// single top-down sift of the new element — the classic replace-top fusion —
// instead of a full pop restructure plus a bottom-up push.

// Payload is the opaque unit of data a typed delivery event carries. It is
// the kernel-level view of a channel message: package core aliases it as
// core.Message, so anything that travels over a channel can be stored
// directly in an event-queue slot without a wrapping closure.
type Payload interface {
	Size() int
}

// Sink receives typed delivery events. Deliver runs at the event's virtual
// time with the payload stored in the queue entry; package core aliases this
// interface as core.Sink.
type Sink interface {
	Deliver(at Time, payload Payload)
}

type eventEntry struct {
	at  Time
	src int32
	// del indexes a side table, so the entry holds no pointer: the GC never
	// scans the heap and a sift copies 24 bytes with no write barrier. When
	// positive the event runs sink.Deliver(at, payload) from the scheduler's
	// delivery side table at slot del-1 — a closure event (At/AtSrc/After)
	// is one such delivery, to a funcSink; when negative it runs the named
	// handler recorded in the named-event side table at slot -del-1. It packs
	// into src's padding.
	del int32
	seq uint64
}

func entryLess(a, b *eventEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled heap to avoid container/heap interface
// allocation overhead on the hottest path in the kernel.
type eventQueue struct {
	h []eventEntry
	// hole marks that h[0] has been popped but the slot not yet refilled;
	// the next Push drops straight into it (replace-top fast path).
	hole bool
}

const heapArity = 4

// Len reports the number of queued entries.
func (q *eventQueue) Len() int {
	n := len(q.h)
	if q.hole {
		n--
	}
	return n
}

// fill closes an open root hole by moving the last element to the root and
// sifting it down. Must run before any operation that reads the root.
func (q *eventQueue) fill() {
	if !q.hole {
		return
	}
	q.hole = false
	n := len(q.h)
	last := q.h[n-1]
	q.h[n-1] = eventEntry{}
	q.h = q.h[:n-1]
	if n-1 > 0 {
		q.h[0] = last
		q.siftDown(0)
	}
}

// Push inserts e. If the root slot is an open hole, e sifts top-down into
// place (one sift instead of a pop restructure plus a push).
func (q *eventQueue) Push(e eventEntry) {
	if q.hole {
		q.hole = false
		q.h[0] = e
		q.siftDown(0)
		return
	}
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
}

// top returns a pointer to the minimum entry, valid only until the next
// mutation, or nil when the queue is empty.
func (q *eventQueue) top() *eventEntry {
	q.fill()
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// Pop removes and returns the minimum entry. The root slot is left as a
// hole for the next Push to reuse.
func (q *eventQueue) Pop() (eventEntry, bool) {
	q.fill()
	if len(q.h) == 0 {
		return eventEntry{}, false
	}
	e := q.h[0]
	q.hole = true
	return e, true
}

func (q *eventQueue) siftUp(i int) {
	e := q.h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !entryLess(&e, &q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = e
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.h)
	e := q.h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(&q.h[j], &q.h[best]) {
				best = j
			}
		}
		if !entryLess(&q.h[best], &e) {
			break
		}
		q.h[i] = q.h[best]
		i = best
	}
	q.h[i] = e
}
