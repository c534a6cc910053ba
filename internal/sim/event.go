package sim

import "math/bits"

// The event queue orders events by a total, deterministic key: (time,
// source, sequence). Source identifies who scheduled the event (the local
// component or an input channel), sequence is a per-scheduler monotone
// counter. Because every tiebreak is explicit, a simulation produces the same
// event order regardless of goroutine interleaving, which is what makes
// coupled (parallel) and sequential execution bit-identical.
//
// The queue is a calendar queue (Brown, CACM 31(10), 1988) in front of a
// 4-ary heap:
//
//   - The wheel has 4096 buckets, each 2¹² ps (4.1 ns) wide, so its window
//     spans 16.8 µs from the cursor — wide enough for the packet tier, which
//     books most events 1–2 µs ahead. A bucket is a short (time, source,
//     sequence)-sorted list; an occupancy bitmap and a cached first bucket
//     find the minimum, so push and pop are O(1).
//   - The heap is the spill. It takes every entry the wheel does not: one
//     beyond the window (Infinity included), one before the cursor (a
//     rolled-back clock, a restored queue) and one whose bucket already holds
//     bucketCap entries. A dense queue — thousands of timers inside a few
//     nanoseconds — therefore costs what the heap alone costs, not a walk of
//     a long bucket list.
//
// A pop takes the smaller of the first bucket's head and the heap's root, so
// which tier holds an entry never changes the order. The cursor advances
// only on pop, to the popped entry's bucket; while the wheel is empty it may
// also move back, to take an entry that lands before it.
//
// Neither tier holds a pointer. Entries are stored by value, bucket lists
// link by int32 index inside one node pool with one free list, and the
// payload an entry delivers lives in a scheduler side table, so scheduling
// allocates nothing in steady state and the GC never scans the queue.
//
// The heap keeps two layout choices that matter when it carries load. It is
// 4-ary rather than binary: half the depth means half the move chain on
// every sift, and the four children sit in adjacent cache lines. And its
// pop leaves a "hole" at the root instead of restructuring at once: the
// kernel's dominant pattern is pop-min-then-push-later (an event's callback
// schedules its successor), and a push into the hole is a single top-down
// sift — the classic replace-top fusion.

// Payload is the opaque unit of data a typed delivery event carries. It is
// the kernel-level view of a channel message: package core aliases it as
// core.Message, so anything that travels over a channel can be stored
// directly in an event-queue slot without a wrapping closure. It is a
// marker: the kernel never looks inside a payload, and the sink that
// receives it type-switches on what it expects.
type Payload interface{}

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

// Calendar geometry.
const (
	bucketBits = 12 // a bucket spans 2¹² ps
	wheelSize  = 4096
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
	// bucketCap is how many entries a bucket holds before newcomers spill,
	// which bounds a sorted insert's walk. A dense queue overflows into the
	// heap, whose cost it would pay anyway.
	bucketCap = 2
	// poolInit is the node pool's initial capacity, so that a lightly
	// loaded scheduler allocates it once rather than doubling from one.
	poolInit = 256
)

// calNode is one wheel entry in its bucket's list.
type calNode struct {
	e    eventEntry
	next int32 // pool index of the next node in the bucket; 0 ends the list
}

// wheel is the calendar's fixed part.
type wheel struct {
	heads [wheelSize]int32   // pool index of each bucket's first node; 0 when empty
	cnt   [wheelSize]uint8   // entries in each bucket, at most bucketCap
	occ   [wheelWords]uint64 // bit i set when bucket i is non-empty
}

// eventQueue is the calendar queue described above. The zero value is an
// empty queue.
type eventQueue struct {
	w    wheel
	pool []calNode // node 0 is never used, so index 0 means "none"
	free int32     // first free node, linked through next
	n    int       // entries on the wheel
	// cur is the bucket number (time >> bucketBits) the window starts at;
	// every wheel entry's bucket number lies in [cur, cur+wheelSize), so a
	// bucket index names one bucket of the window. first is the least
	// occupied bucket number, valid while n > 0.
	cur, first int64
	spill      spillHeap
}

// Len reports the number of queued entries.
func (q *eventQueue) Len() int { return q.n + q.spill.Len() }

// Push inserts e.
func (q *eventQueue) Push(e eventEntry) {
	b := int64(e.at) >> bucketBits
	if uint64(b-q.cur) >= wheelSize {
		if q.n > 0 || b > q.cur {
			q.spill.push(e)
			return
		}
		q.cur = b // an empty wheel may start its window anywhere
	}
	if q.w.cnt[uint(b)&wheelMask] == bucketCap {
		q.spill.push(e)
		return
	}
	q.wheelPush(e, b)
}

// wheelPush links e into its place in bucket b, which lies in the window
// and has room.
func (q *eventQueue) wheelPush(e eventEntry, b int64) {
	slot := uint(b) & wheelMask
	prev := int32(0)
	for i := q.w.heads[slot]; i != 0 && entryLess(&q.pool[i].e, &e); i = q.pool[i].next {
		prev = i
	}
	k := q.free
	if k != 0 {
		q.free = q.pool[k].next
	} else {
		if q.pool == nil {
			q.pool = make([]calNode, 1, poolInit)
		}
		q.pool = append(q.pool, calNode{})
		k = int32(len(q.pool) - 1)
	}
	// Indices, not pointers: the append above may have moved the pool.
	if prev == 0 {
		q.pool[k] = calNode{e: e, next: q.w.heads[slot]}
		q.w.heads[slot] = k
	} else {
		q.pool[k] = calNode{e: e, next: q.pool[prev].next}
		q.pool[prev].next = k
	}
	q.w.cnt[slot]++
	q.w.occ[slot>>6] |= 1 << (slot & 63)
	if q.n == 0 || b < q.first {
		q.first = b
	}
	q.n++
}

// head returns the minimum entry, or nil when the queue is empty, and
// whether it heads the first bucket rather than the spill. The pointer is
// valid only until the next mutation.
func (q *eventQueue) head() (*eventEntry, bool) {
	s := q.spill.top()
	if q.n == 0 {
		return s, false
	}
	w := &q.pool[q.w.heads[uint(q.first)&wheelMask]].e
	if s != nil && entryLess(s, w) {
		return s, false
	}
	return w, true
}

// top returns a pointer to the minimum entry, valid only until the next
// mutation, or nil when the queue is empty.
func (q *eventQueue) top() *eventEntry {
	e, _ := q.head()
	return e
}

// Pop removes and returns the minimum entry.
func (q *eventQueue) Pop() (eventEntry, bool) {
	e, inWheel := q.head()
	if e == nil {
		return eventEntry{}, false
	}
	return q.remove(inWheel), true
}

// popBefore removes and returns the minimum entry if it is earlier than
// limit.
func (q *eventQueue) popBefore(limit Time) (eventEntry, bool) {
	e, inWheel := q.head()
	if e == nil || e.at >= limit {
		return eventEntry{}, false
	}
	return q.remove(inWheel), true
}

// remove takes out the minimum entry head found, from the wheel or the
// spill, and moves the cursor to its bucket.
func (q *eventQueue) remove(inWheel bool) eventEntry {
	if !inWheel {
		e := q.spill.pop()
		if b := int64(e.at) >> bucketBits; q.n == 0 || b > q.cur {
			q.cur = b
		}
		return e
	}
	slot := uint(q.first) & wheelMask
	i := q.w.heads[slot]
	nd := &q.pool[i]
	e := nd.e
	q.w.heads[slot] = nd.next
	nd.next = q.free
	q.free = i
	q.n--
	q.cur = q.first
	if q.w.cnt[slot]--; q.w.cnt[slot] == 0 {
		q.w.occ[slot>>6] &^= 1 << (slot & 63)
		if q.n > 0 {
			q.first = q.w.after(q.first)
		}
	}
	return e
}

// after returns the number of the first occupied bucket past bucket b,
// scanning the bitmap circularly. The wheel must hold an entry, and every
// entry must lie within a window that starts at or before b.
func (w *wheel) after(b int64) int64 {
	s := uint(b+1) & wheelMask
	if m := w.occ[s>>6] >> (s & 63); m != 0 {
		return b + 1 + int64(bits.TrailingZeros64(m))
	}
	for k := uint(1); k <= wheelWords; k++ {
		j := (s>>6 + k) & (wheelWords - 1)
		if m := w.occ[j]; m != 0 {
			slot := j<<6 + uint(bits.TrailingZeros64(m))
			return b + 1 + int64((slot-s)&wheelMask)
		}
	}
	panic("sim: calendar wheel is empty")
}

// visit calls fn on every queued entry until fn returns false: the wheel's
// in time order through the bitmap, then the spill's in heap order.
func (q *eventQueue) visit(fn func(*eventEntry) bool) {
	left := q.n
	for b := q.first; left > 0; b = q.w.after(b) {
		for i := q.w.heads[uint(b)&wheelMask]; i != 0; i = q.pool[i].next {
			if !fn(&q.pool[i].e) {
				return
			}
			left--
		}
	}
	q.spill.fill()
	for i := range q.spill.h {
		if !fn(&q.spill.h[i]) {
			return
		}
	}
}

// spillHeap is a hand-rolled 4-ary min-heap, free of container/heap's
// interface calls.
type spillHeap struct {
	h []eventEntry
	// hole marks that h[0] has been popped but the slot not yet refilled;
	// the next push drops straight into it (replace-top fast path).
	hole bool
}

const heapArity = 4

// Len reports the number of entries in the heap.
func (q *spillHeap) Len() int {
	n := len(q.h)
	if q.hole {
		n--
	}
	return n
}

// fill closes an open root hole by moving the last element to the root and
// sifting it down. Must run before any operation that reads the root.
func (q *spillHeap) fill() {
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

// push inserts e. If the root slot is an open hole, e sifts top-down into
// place (one sift instead of a pop restructure plus a push).
func (q *spillHeap) push(e eventEntry) {
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
// mutation, or nil when the heap is empty.
func (q *spillHeap) top() *eventEntry {
	q.fill()
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// pop removes and returns the minimum entry of a heap that top found
// non-empty. The root slot is left as a hole for the next push to reuse.
func (q *spillHeap) pop() eventEntry {
	q.hole = true
	return q.h[0]
}

func (q *spillHeap) siftUp(i int) {
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

func (q *spillHeap) siftDown(i int) {
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
