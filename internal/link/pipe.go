// Package link implements SplitSim channels: the message-passing and
// synchronization fabric that couples component simulators running as
// parallel goroutines.
//
// The synchronization protocol is SimBricks': each side of a channel stamps
// every outgoing message (data or sync) with its current virtual time, and a
// receiver may only advance its own clock to lastReceivedTimestamp + channel
// latency — plus the least constant reaction lag its sinks declare
// (core.Lagger), since those deliver that much later still. Because a channel's messages are FIFO with monotone timestamps,
// a component never sees a message "from the past", and the whole coupled
// simulation is deterministic — bit-identical to sequential execution of the
// same components (package orch verifies this property in its tests).
//
// The paper runs each component simulator as an OS process and carries
// channels over lock-free shared-memory SPSC queues. Coupling external C++
// simulators that way is not reproducible in offline pure Go, so components
// here are goroutines and channels are lock-free single-producer/single-
// consumer segmented rings between them (mirroring the SimBricks queues);
// the protocol, message vocabulary, and timing semantics are unchanged (see
// DESIGN.md, substitution table).
package link

import (
	"runtime"
	"sync/atomic"
)

// Chunk geometry: messages live in fixed-size segments chained by an atomic
// next pointer, so the queue is unbounded (bounded queues can deadlock two
// components that both fill their outgoing queue while not draining incoming
// ones; SimBricks sizes its shm rings generously for the same reason) while
// each segment's slots are plain contiguous memory.
const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift // messages per segment
	chunkMask  = chunkSize - 1
)

type chunk struct {
	next atomic.Pointer[chunk]
	msgs [chunkSize]Message
}

// pipe is an unbounded, closable FIFO queue carrying Messages from exactly
// one producing goroutine to exactly one consuming goroutine, with no lock
// on either path.
//
// Layout: message i lives in segment i>>chunkShift at slot i&chunkMask. The
// producer owns the tail segment and a staged-write counter; publication is
// a single atomic store of `tail` (the count of visible messages), so N
// staged sends become visible to the consumer in one publish. The consumer
// owns the head segment and its consumed counter, republished through the
// atomic `head` for depth accounting. Fully consumed segments are recycled
// to the producer through a small stack of `spares` slots, so steady-state
// traffic allocates nothing, and neither does a burst a few segments deep
// once the consumer has handed its segments back.
//
// The consumer parks on a futex-like gate only when truly idle: it declares
// itself parked, re-checks for work (the Dekker handshake with the
// producer's publish — both sides' atomics are sequentially consistent, so
// one of them always observes the other), and only then blocks on the wake
// channel. Producers skip the gate entirely unless the parked flag is set,
// so the publish fast path is one atomic store plus one atomic load.
type pipe struct {
	// Producer-owned: only the producing goroutine touches these.
	written   uint64 // messages staged (written to slots, maybe unpublished)
	published uint64 // producer-local mirror of tail
	headCache uint64 // stale lower bound on head (head only advances)
	peakLocal uint64 // producer-local mirror of peak
	prodChunk *chunk
	_         [2]uint64 // keep producer fields off the consumer's cache lines

	// Consumer-owned.
	consumed  uint64 // messages consumed
	tailCache uint64 // consumer-local snapshot of tail
	consChunk *chunk
	parks     uint64 // recv waits that outlasted the yields and parked
	_         [3]uint64

	// Shared. tail/peak are producer-written, head consumer-written;
	// closed/intr/parked/spares/wake are the control plane.
	tail   atomic.Uint64 // published message count
	_      [7]uint64
	head   atomic.Uint64 // consumed message count
	_      [7]uint64
	peak   atomic.Uint64 // max (written - head) observed at publish
	closed atomic.Bool
	intr   atomic.Bool
	parked atomic.Int32
	spares [numSpares]atomic.Pointer[chunk] // recycled segments, consumer → producer
	wake   chan struct{}                    // cap-1 binary semaphore for the parked gate

	chunkAllocs atomic.Uint64 // segments ever allocated (tests/diagnostics)
}

// numSpares is how many consumed segments a pipe keeps for reuse. A window
// of lookahead can put several segments in flight at once; a segment
// recycled while every slot is full is left to the collector.
const numSpares = 4

func newPipe() *pipe {
	c := new(chunk)
	p := &pipe{prodChunk: c, consChunk: c, wake: make(chan struct{}, 1)}
	p.chunkAllocs.Store(1)
	return p
}

// push stages m without publishing it: the consumer cannot see it until the
// next flush — unless the consumer is parked, in which case push publishes
// immediately. Batching pays when the consumer has work to overlap with;
// a parked consumer is starved, and holding messages back from it only
// converts producer batching into consumer idle time. Pushing on a closed
// pipe panics (a protocol bug). Producer side only.
func (p *pipe) push(m Message) {
	if p.closed.Load() {
		panic("link: send on closed pipe")
	}
	c := p.prodChunk
	idx := int(p.written & chunkMask)
	c.msgs[idx] = m
	p.written++
	if idx == chunkMask {
		// Segment full: chain a fresh one (recycled if the consumer has
		// handed one back) before any slot in it is written.
		nc := p.takeSpare()
		if nc == nil {
			nc = new(chunk)
			p.chunkAllocs.Add(1)
		}
		c.next.Store(nc)
		p.prodChunk = nc
	}
	if p.parked.Load() != 0 {
		p.flush()
	}
}

// flush publishes every staged message in one atomic store and wakes the
// consumer if it is parked. A no-op when nothing is staged. Producer side
// only.
func (p *pipe) flush() {
	if p.written == p.published {
		return
	}
	p.published = p.written
	p.tail.Store(p.written)
	// Peak-depth tracking against a stale head: head only ever advances, so
	// written-headCache is an upper bound on the true depth, and a publish
	// that does not beat the current peak even by that bound cannot set a
	// record — the common case costs no atomic traffic at all.
	if p.written-p.headCache > p.peakLocal {
		p.headCache = p.head.Load()
		if d := p.written - p.headCache; d > p.peakLocal {
			p.peakLocal = d
			p.peak.Store(d)
		}
	}
	if p.parked.Load() != 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// send enqueues m with immediate publication (push + flush).
func (p *pipe) send(m Message) {
	p.push(m)
	p.flush()
}

// pop dequeues one message without blocking. Consumer side only.
func (p *pipe) pop() (Message, bool) {
	if p.consumed >= p.tailCache {
		p.tailCache = p.tail.Load()
		if p.consumed >= p.tailCache {
			return Message{}, false
		}
	}
	c := p.consChunk
	idx := int(p.consumed & chunkMask)
	m := c.msgs[idx]
	c.msgs[idx] = Message{}
	p.consumed++
	p.head.Store(p.consumed)
	if idx == chunkMask {
		p.advanceChunk(c)
	}
	return m, true
}

// advanceChunk moves the consumer to the next segment after fully consuming
// c, and recycles c to the producer. The next pointer is always visible
// here: tail covered a message past the end of c, and the producer linked
// the next segment before publishing any message in it.
func (p *pipe) advanceChunk(c *chunk) {
	next := c.next.Load()
	if next == nil {
		panic("link: pipe segment chain broken (concurrent consumers?)")
	}
	p.consChunk = next
	c.next.Store(nil)
	for i := range p.spares {
		if p.spares[i].CompareAndSwap(nil, c) {
			return
		}
	}
}

// takeSpare pops a recycled segment, nil when none is left. Producer side
// only: the Swap hands each recycled segment over exactly once, while the
// consumer only ever fills a slot that is empty.
func (p *pipe) takeSpare() *chunk {
	for i := range p.spares {
		if p.spares[i].Load() != nil {
			if c := p.spares[i].Swap(nil); c != nil {
				return c
			}
		}
	}
	return nil
}

// tryRecv dequeues without blocking. ok is false when the pipe is empty;
// closed additionally reports that no message will ever arrive again.
func (p *pipe) tryRecv() (m Message, ok, closed bool) {
	if m, ok := p.pop(); ok {
		return m, true, false
	}
	if p.closed.Load() {
		// close happens after the final publish, so seeing closed means the
		// final tail is visible: one re-pop drains a racing last message.
		if m, ok := p.pop(); ok {
			return m, true, false
		}
		return Message{}, false, true
	}
	return Message{}, false, false
}

// empty reports whether no published message is pending. Consumer side
// only: it compares against the consumer's own position.
func (p *pipe) empty() bool {
	return p.tail.Load() == p.consumed
}

// drain consumes every published message in place, invoking fn on each
// straight out of its ring slot — the coupled-run drain path: one atomic
// load per batch instead of synchronization per message, and nothing is
// copied out of the ring. n reports how many messages were consumed; closed
// reports — only when n is 0 — that no message will ever arrive again.
// Consumer side only; fn must not touch this pipe's consumer side.
func (p *pipe) drain(fn func(Message)) (n int, closed bool) {
	avail := p.tail.Load() - p.consumed
	if avail == 0 {
		if !p.closed.Load() {
			return 0, false
		}
		avail = p.tail.Load() - p.consumed // final publish precedes close
		if avail == 0 {
			return 0, true
		}
	}
	for avail > 0 {
		c := p.consChunk
		idx := int(p.consumed & chunkMask)
		seg := chunkSize - idx
		if uint64(seg) > avail {
			seg = int(avail)
		}
		for i := idx; i < idx+seg; i++ {
			m := c.msgs[i]
			c.msgs[i] = Message{}
			fn(m)
		}
		p.consumed += uint64(seg)
		avail -= uint64(seg)
		n += seg
		if p.consumed&chunkMask == 0 {
			p.advanceChunk(c)
		}
	}
	p.tailCache = p.consumed
	p.head.Store(p.consumed)
	return n, false
}

// waitYields is how many times a blocked consumer yields before it parks.
// Runners are plain goroutines, so a yield is a cheap goroutine switch: it
// lets a peer runner sharing this P run and publish, and when nothing else
// is runnable it returns at once, so the yield loop is also the poll of a
// peer publishing from another core and needs no spin phase before it.
const waitYields = 8

// recv dequeues, blocking until a message arrives or the pipe is closed and
// drained: it yields waitYields times, then parks on the gate, counting
// the wait in parks. Consumer side only.
func (p *pipe) recv() (m Message, ok, closed bool) {
	for i := 0; ; i++ {
		if m, ok := p.pop(); ok {
			return m, true, false
		}
		if p.closed.Load() {
			if m, ok := p.pop(); ok {
				return m, true, false
			}
			return Message{}, false, true
		}
		if i < waitYields {
			runtime.Gosched()
			continue
		}
		if i == waitYields {
			p.parks++
		}
		p.park(false)
	}
}

// park blocks the consumer until a producer-side event (publish, close,
// interrupt) wakes it. The parked flag plus the post-flag re-check make the
// gate lost-wakeup-free; a leftover token only costs one spurious loop in
// the caller.
func (p *pipe) park(interruptible bool) {
	p.parked.Store(1)
	if p.tail.Load() != p.consumed || p.closed.Load() ||
		(interruptible && p.intr.Load()) {
		p.parked.Store(0)
		return
	}
	<-p.wake
	p.parked.Store(0)
}

// interrupt permanently wakes receivers blocked in recvInterruptible. The
// flag is sticky: once set, recvInterruptible never blocks again, though it
// still drains messages already queued. The transport layer uses this to
// cancel its pump goroutine, which blocks here on a pipe — not on the
// network connection — and so is not unblocked by closing the socket. Safe
// to call from any goroutine, concurrently with both ends.
func (p *pipe) interrupt() {
	p.intr.Store(true)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// recvInterruptible dequeues, parking as soon as the pipe is empty, until a
// message arrives, the pipe is closed and drained, or — intr=true with
// ok=false, closed=false — interrupt was called and no queued message
// remains.
func (p *pipe) recvInterruptible() (m Message, ok, closed, intr bool) {
	for {
		if m, ok := p.pop(); ok {
			return m, true, false, false
		}
		if p.closed.Load() {
			if m, ok := p.pop(); ok {
				return m, true, false, false
			}
			return Message{}, false, true, false
		}
		if p.intr.Load() {
			return Message{}, false, false, true
		}
		p.park(true)
	}
}

// close publishes anything still staged, marks the pipe as finished, and
// wakes a blocked receiver. Idempotent; producer side only.
func (p *pipe) close() {
	p.flush()
	p.closed.Store(true)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// peakDepth reports the maximum queue depth ever observed at publication
// time (staged writes included). Safe from any goroutine.
func (p *pipe) peakDepth() uint64 { return p.peak.Load() }
