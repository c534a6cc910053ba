package proto

import (
	"sync"

	"repro/internal/slab"
)

// FramePool is a free list of Frames and of the payload buffers backing
// them. It makes the steady-state packet path allocation-free: terminal
// sinks Release frames back into the pool instead of dropping them for the
// garbage collector, and encode paths reuse pooled byte buffers instead of
// appending into fresh slices.
//
// Ownership contract. A *Frame obtained from Get is owned by exactly one
// component at a time. Handing the frame to a port, sink, or scheduler
// delivery transfers ownership; the terminal consumer calls Release. A pool
// is confined to its owning component's scheduler goroutine, so pools need
// no locking. A frame leaves its pool for another only across a channel
// between two network partitions (netsim.ExtPort): the sender Detaches it
// before the send, the frame travels pool-less, and the receiver Adopts it
// at delivery. The channel's publish and consume order the two, so neither
// pool is ever touched from a goroutine other than its owner's. Every other
// boundary — a NIC, a proxy — carries bytes (WireFrame). Byte buffers
// migrate too: ParseFrameInto adopts the input buffer into the receiving
// frame, and Release returns it to the receiver's pool. Traffic flowing both
// ways keeps the frame and buffer populations balanced; poolMaxFree caps
// the free lists either way, and new frames are cut from a slab, so an
// imbalance costs one allocation per chunk rather than per frame.
//
// Frames built with plain struct literals (tests, app-injected replies)
// have no pool; their Release is a no-op and the GC reclaims them.
type FramePool struct {
	free  []*Frame
	bufs  [][]byte
	mem   slab.Slab[Frame]
	stats PoolStats
}

// PoolStats is a pool-health counter snapshot.
type PoolStats struct {
	Allocs   uint64 // frames newly made (cut from the pool's slab)
	Reuses   uint64 // frames served from the free list
	Releases uint64 // frames returned via Release
	In       uint64 // frames adopted from another pool
	Out      uint64 // frames detached to another pool
	Live     uint64 // frames currently checked out (leaks if nonzero after a run)
}

// Add accumulates o into s.
func (s *PoolStats) Add(o PoolStats) {
	s.Allocs += o.Allocs
	s.Reuses += o.Reuses
	s.Releases += o.Releases
	s.In += o.In
	s.Out += o.Out
	s.Live += o.Live
}

// poolMaxFree bounds both free lists so asymmetric traffic cannot grow a
// pool without bound; overflow falls through to the garbage collector.
const poolMaxFree = 4096

// Get returns a zeroed frame owned by the caller.
func (p *FramePool) Get() *Frame {
	n := len(p.free)
	if n == 0 {
		p.stats.Allocs++
		f := p.mem.New()
		f.pool, f.live = p, true
		return f
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.stats.Reuses++
	f.live = true
	return f
}

// GetBuf returns an empty byte buffer with pooled capacity, for encode
// paths: buf = AppendFrame(pool.GetBuf(), f). The buffer returns to a pool
// when the frame that eventually adopts it (ParseFrameInto) is released.
func (p *FramePool) GetBuf() []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs[n-1] = nil
		p.bufs = p.bufs[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 256)
}

// PutBuf returns a buffer to the pool. Frames release their adopted buffer
// automatically; call this only for buffers that never reached a frame.
func (p *FramePool) PutBuf(b []byte) {
	if cap(b) == 0 || len(p.bufs) >= poolMaxFree {
		return
	}
	p.bufs = append(p.bufs, b[:0])
}

// Stats returns the pool-health counters.
func (p *FramePool) Stats() PoolStats {
	s := p.stats
	s.Live = s.Allocs + s.Reuses + s.In - s.Releases - s.Out
	return s
}

// Detach takes f out of its pool so another pool can Adopt it: the pool
// counts it gone, and f is pool-less (its Release a no-op) until adopted.
// f keeps its payload buffer. Detaching a pool-less frame does nothing.
func (f *Frame) Detach() {
	p := f.pool
	if p == nil {
		return
	}
	if !f.live {
		panic("proto: detach of a released frame")
	}
	p.stats.Out++
	f.pool, f.live = nil, false
}

// Adopt makes p the owner of f, which must be pool-less (detached, or built
// as a literal) or already p's: a frame re-minted from a checkpoint or a
// replay log comes from the receiver's own pool and is adopted already.
func (p *FramePool) Adopt(f *Frame) {
	switch f.pool {
	case p:
		return
	case nil:
	default:
		panic("proto: adopt of a frame another pool owns")
	}
	f.pool, f.live = p, true
	p.stats.In++
}

// Release returns the frame (and any adopted payload buffer) to its pool.
// Releasing a pool-less frame is a no-op; releasing a pooled frame twice
// panics — the double-release checker that, with buffer poisoning under
// -race builds, guards the ownership hand-off contract.
func (f *Frame) Release() {
	p := f.pool
	if p == nil {
		return
	}
	if !f.live {
		panic("proto: frame released twice")
	}
	buf := f.buf
	*f = Frame{}
	f.pool = p
	if buf != nil {
		if poolDebug {
			poisonBuf(buf)
		}
		p.PutBuf(buf)
	}
	p.stats.Releases++
	if len(p.free) < poolMaxFree {
		p.free = append(p.free, f)
	}
}

// WireFrame is a serialized Ethernet frame traveling between simulator
// components as an honest byte string (the payload type of SimBricks
// Ethernet channels). As a pointer type it crosses the core.Message interface without boxing, and the wrapper is
// recycled through a sync.Pool (wire frames cross runner goroutines, so the
// wrapper pool must be concurrency-safe; the byte buffer inside is handed
// off with the message and adopted by the receiver's FramePool).
type WireFrame struct{ B []byte }

var wirePool = sync.Pool{New: func() any { return new(WireFrame) }}

// GetWireFrame wraps b in a pooled WireFrame. Ownership of b transfers with
// the message.
func GetWireFrame(b []byte) *WireFrame {
	w := wirePool.Get().(*WireFrame)
	w.B = b
	return w
}

// PutWireFrame recycles the wrapper (not the buffer — the consumer has
// adopted or copied it by the time the wrapper is returned).
func PutWireFrame(w *WireFrame) {
	w.B = nil
	wirePool.Put(w)
}

// Release implements core.Releaser: recycle the wrapper and leave the buffer
// to the garbage collector (the wrapper carries no pool reference to return
// it to). Discard paths — stragglers dropped before delivery, staged output
// cleared by a rollback, queues swept at end of run — release wire frames
// that never reach a consumer. The interface is also load-bearing for
// optimistic execution: delivery adopts B, so the speculative input log must
// deep-copy wire frames rather than hold a reference that replay would find
// recycled.
func (w *WireFrame) Release() { PutWireFrame(w) }
