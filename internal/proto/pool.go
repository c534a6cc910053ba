package proto

import "sync"

// FramePool is a free list of Frames and of the payload buffers backing
// them. It makes the steady-state packet path allocation-free: terminal
// sinks Release frames back into the pool instead of dropping them for the
// garbage collector, and encode paths reuse pooled byte buffers instead of
// appending into fresh slices.
//
// Ownership contract. A *Frame obtained from Get is owned by exactly one
// component at a time. Handing the frame to a port, sink, or scheduler
// delivery transfers ownership; the terminal consumer calls Release. A pool
// is confined to its owning component's scheduler goroutine — a network
// boundary (netsim.ExtPort) encodes every frame it sends, so cross-runner
// channels carry bytes (WireFrame), never *Frame, by construction, and pools
// need no locking. Byte buffers do migrate between pools: ParseFrameInto
// adopts the input buffer into the receiving frame, and Release returns it
// to the receiver's pool. Traffic flowing both ways keeps the buffer
// populations balanced; poolMaxFree caps them either way.
//
// Frames built with plain struct literals (tests, app-injected replies)
// have no pool; their Release is a no-op and the GC reclaims them.
type FramePool struct {
	free  []*Frame
	bufs  [][]byte
	stats PoolStats
}

// PoolStats is a pool-health counter snapshot.
type PoolStats struct {
	Allocs   uint64 // frames newly heap-allocated
	Reuses   uint64 // frames served from the free list
	Releases uint64 // frames returned via Release
	Live     uint64 // frames currently checked out (leaks if nonzero after a run)
}

// Add accumulates o into s; Live saturates at zero like the per-pool value.
func (s *PoolStats) Add(o PoolStats) {
	s.Allocs += o.Allocs
	s.Reuses += o.Reuses
	s.Releases += o.Releases
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
		return &Frame{pool: p, live: true}
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
	s.Live = s.Allocs + s.Reuses - s.Releases
	return s
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

// Size implements core.Message: the encoded length.
func (w *WireFrame) Size() int { return len(w.B) }

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
