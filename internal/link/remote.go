package link

import "repro/internal/sim"

// NewHalf creates a channel endpoint whose peer lives in another OS
// process: the local side is a normal Endpoint a Runner attaches to, and
// the Remote handle is what a proxy (package proxy) pumps to and from the
// transport. This is the SimBricks proxy mechanism the paper inherits for
// scaling out across machines.
//
// Synchronization semantics are unchanged: the remote peer's messages
// (data and sync) carry its virtual timestamps, and the local runner may
// not advance past lastRemoteTimestamp + latency. The transport only has
// to preserve order; wall-clock network delay costs wall time, never
// simulated time.
func NewHalf(name string, latency sim.Time) (*Endpoint, *Remote) {
	c := NewChannel(name, latency)
	// The local runner owns side A. Side B's pipes are driven by the
	// Remote: what A sent shows up in remote.RecvInterruptible, and
	// remote.Inject feeds A's inbox.
	r := &Remote{
		fromLocal: c.a.out,
		toLocal:   c.b.out,
	}
	return c.a, r
}

// Remote is the transport-facing half of a spliced channel.
type Remote struct {
	fromLocal *pipe // messages the local endpoint sent
	toLocal   *pipe // inbox of the local endpoint
}

// RecvInterruptible blocks for the next message produced by the local
// endpoint (data or sync). ok=false with intr=false means the local side
// finished and drained; intr=true is returned once Interrupt was called and
// every queued message has been drained.
// Transport pumps use this so their outbound goroutine — blocked on the
// pipe, not the socket — can be cancelled without leaking.
func (r *Remote) RecvInterruptible() (m Message, ok, intr bool) {
	m, ok, _, intr = r.fromLocal.recvInterruptible()
	return m, ok, intr
}

// Interrupt permanently wakes any receiver blocked in RecvInterruptible.
// It is idempotent and safe to call from any goroutine.
func (r *Remote) Interrupt() { r.fromLocal.interrupt() }

// Inject delivers a message from the remote peer to the local endpoint.
// Injecting after CloseToLocal is a protocol violation and panics; the
// transport's per-channel sequence resync exists to prevent exactly that.
func (r *Remote) Inject(m Message) { r.toLocal.send(m) }

// CloseToLocal signals that the remote peer finished (its final sync has
// been injected); the local runner treats the channel as drained. It is
// idempotent: a transport may call it again after a dirty disconnect that
// raced with a clean end of stream.
func (r *Remote) CloseToLocal() { r.toLocal.close() }
