package link

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Channel is a bidirectional SplitSim channel between two component
// simulators. Each direction is an independent FIFO; both share the same
// latency, which is also the synchronization quantum — the SimBricks
// protocol: a side may not run past its peer's last timestamp + latency,
// widened by the least reaction lag of the sinks it feeds.
type Channel struct {
	Name    string
	Latency sim.Time

	a, b *Endpoint
}

// NewChannel creates a channel. latency must be positive — it is the
// synchronization lookahead, and a zero-latency channel cannot be simulated
// in parallel.
func NewChannel(name string, latency sim.Time) *Channel {
	if latency <= 0 {
		panic(fmt.Sprintf("link: channel %q needs positive latency", name))
	}
	c := &Channel{Name: name, Latency: latency}
	ab, ba := newPipe(), newPipe()
	c.a = &Endpoint{ch: c, label: name + ".a", out: ab, in: ba, lastSentT: -1, lastRecvT: -1, lookahead: latency}
	c.b = &Endpoint{ch: c, label: name + ".b", out: ba, in: ab, lastSentT: -1, lastRecvT: -1, lookahead: latency}
	c.a.peer = c.b
	c.b.peer = c.a
	return c
}

// SideA returns the endpoint used by the first component.
func (c *Channel) SideA() *Endpoint { return c.a }

// SideB returns the endpoint used by the second component.
func (c *Channel) SideB() *Endpoint { return c.b }

// Endpoint is one side's view of a channel: it is both the component's
// outgoing port and the runner's incoming message source. All methods must
// be called from the owning runner's goroutine; only the underlying pipes
// are shared with the peer.
type Endpoint struct {
	ch    *Channel
	label string
	peer  *Endpoint
	out   *pipe
	in    *pipe

	runner *Runner
	subs   []subEnd // indexed by sub-channel id

	// lookahead is how far past the peer's clock this side may run: the
	// channel latency plus the least reaction lag over its sinks (see
	// core.Lagger), since no message the peer sends later can act here
	// sooner. SetSink keeps it current; a sub with a lag-0 sink holds it at
	// plain latency.
	lookahead sim.Time

	lastSentT sim.Time // our clock when we last sent anything (-1: never)
	lastRecvT sim.Time // peer clock as of the last received message (-1: none)
	peerDone  bool

	// start is the virtual time both sides of the channel begin at: 0 for a
	// normal run, the checkpoint horizon for a restored one. Before the
	// first message arrives the peer is known only to be at start, so the
	// horizon floor is start + latency — without this a restored runner
	// would wait on a horizon in the already-simulated past.
	start sim.Time

	// spec carries the optimistic-execution state (withheld outputs, input
	// log, leap counters — see spec.go); it stays zero in conservative runs.
	spec epSpec

	Stats Counters
}

// subEnd is this side's record of one sub-channel: the sink, its reaction
// lag and the ordering source its incoming messages deliver with, the
// component whose pool a logged pooled payload re-mints from at replay
// (optimistic runs only), and tx, the data messages published on it. tx counts at publication, so a
// rollback's re-sends — withheld and then deduplicated — never count twice:
// at the end of a run each sub's tx is exactly its committed sends, which is
// what lets several logical channels share one endpoint and still report
// their own message counts.
type subEnd struct {
	sink  core.Sink
	lag   sim.Time
	src   int32
	owner core.Component
	tx    uint64
}

// sub returns the record of sub-channel id, growing the table to hold it.
func (e *Endpoint) sub(id uint16) *subEnd {
	if int(id) >= len(e.subs) {
		e.subs = append(e.subs, make([]subEnd, int(id)+1-len(e.subs))...)
	}
	return &e.subs[id]
}

// Label returns a human-readable endpoint name ("chan.a"/"chan.b").
func (e *Endpoint) Label() string { return e.label }

// PeerRunnerName returns the name of the runner that owns the opposite
// endpoint ("" before it is attached).
func (e *Endpoint) PeerRunnerName() string {
	if e.peer.runner == nil {
		return ""
	}
	return e.peer.runner.Name()
}

// Send transmits payload on sub-channel 0, stamped with the owning runner's
// current virtual time and held for hold. It implements core.Port.
func (e *Endpoint) Send(payload core.Message, hold sim.Time) { e.SendSub(0, payload, hold) }

// SendSub transmits payload on the given sub-channel, held for hold past the
// stamp (the owning runner's clock). The message is staged
// in the outgoing ring but not yet published: the owning runner publishes
// every staged message at once (one atomic store + at most one consumer
// wakeup per scheduler pass) from syncAt, finish, and before blocking —
// see Runner.flushAll. FIFO order and monotone timestamps are preserved
// because staging keeps the producer's program order.
func (e *Endpoint) SendSub(sub uint16, payload core.Message, hold sim.Time) {
	if e.runner == nil {
		panic("link: endpoint " + e.label + " not attached to a runner")
	}
	now := e.runner.sched.Now()
	n := msgCount(payload)
	e.Stats.TxData += n
	if e.runner.spec.withhold {
		// Speculative group: the send may sit at or past the committed
		// horizon and could still roll back, so it is staged locally and
		// published by releaseWithheld once committed passes its stamp.
		e.spec.withheld = append(e.spec.withheld, specOut{T: now, Hold: hold, Sub: sub, Payload: payload})
		return
	}
	e.publish(now, hold, sub, payload, n)
}

// publish stages one data message stamped t and held for hold, worth n
// logical messages, into the outgoing ring — the one place data enters it,
// straight from SendSub or on release from the withheld buffer.
func (e *Endpoint) publish(t, hold sim.Time, sub uint16, payload core.Message, n uint64) {
	e.out.push(Message{T: t, Hold: hold, Kind: KindData, Sub: sub, Payload: payload})
	e.sub(sub).tx += n
	if e.runner.spec.dom != nil {
		e.spec.tx.Add(1)
	}
	e.lastSentT = max(e.lastSentT, t)
}

// SubPort returns a core.Port bound to one sub-channel of this endpoint. This
// is the paper's trunk adapter: several logical links share one synchronized
// channel and pay its synchronization cost once; messages carry the
// sub-channel id and the receiver demultiplexes them to the sinks SetSink
// registered.
func (e *Endpoint) SubPort(sub uint16) core.Port { return subPort{e: e, sub: sub} }

type subPort struct {
	e   *Endpoint
	sub uint16
}

func (p subPort) Send(payload core.Message, hold sim.Time) { p.e.SendSub(p.sub, payload, hold) }

// SetSink registers the sink receiving sub-channel sub. srcID is the stable
// event-ordering source for deliveries on this sub-channel; wiring code must
// assign srcIDs identically in sequential and coupled mode for runs to be
// comparable. The sink's reaction lag (core.LagOf) is read here, once: it
// sets when the sub's messages deliver and, as the least over every sub,
// the endpoint's lookahead.
func (e *Endpoint) SetSink(sub uint16, srcID int32, sink core.Sink) {
	se := e.sub(sub)
	se.sink, se.src, se.lag = sink, srcID, core.LagOf(sink)
	least := sim.Infinity
	for i := range e.subs {
		if e.subs[i].sink != nil {
			least = min(least, e.subs[i].lag)
		}
	}
	e.lookahead = e.ch.Latency + least
}

// deliverAt is when a message sent at t and held for hold acts at a sink of
// reaction lag lag across latency lat: it leaves at t + hold, arrives lat
// later and is delivered lag after that. It is the one formula every
// delivery path uses — DirectPort.Send, handle and its committed and
// straggler checks, and the speculative replay — so every placement
// delivers each message at the same instant.
func deliverAt(t, hold, lat, lag sim.Time) sim.Time { return t + hold + lat + lag }

// horizon returns the virtual time this side may safely advance to: every
// later message from the peer is stamped at or after lastRecvT (at or after
// the common start before the first), so it acts here no sooner than that
// plus the lookahead.
func (e *Endpoint) horizon() sim.Time {
	if e.peerDone {
		return sim.Infinity
	}
	if e.lastRecvT < 0 {
		// Nothing received yet: the peer is at the common start time.
		return e.start + e.lookahead
	}
	return e.lastRecvT + e.lookahead
}

// sendSync stages a pure synchronization message stamped now, unless a
// message with that timestamp (or later) was already sent. Like data sends
// it is published by the runner's next flush.
func (e *Endpoint) sendSync(now sim.Time) {
	if now <= e.lastSentT {
		return
	}
	e.out.push(Message{T: now, Kind: KindSync})
	e.lastSentT = now
	e.Stats.TxSync++
}

// finish sends a final sync at end and closes the outgoing direction
// (close publishes anything still staged before marking the end of stream).
func (e *Endpoint) finish(end sim.Time) {
	e.sendSync(end)
	e.out.close()
}

// handle processes one incoming message — the only receive path, fed by the
// runner's drain, by the message that ends a stall, and by DrainResidual. It
// advances the recorded peer clock and, for data, schedules delivery at
// T + hold + latency + the sink's lag on the runner's scheduler with the
// sub-channel's ordering source. While the runner holds a snapshot the
// message is also logged for replay, and one that lands at or below the
// scheduler's executed watermark (MaxExec) is a straggler: it is left to
// the rollback's replay instead of being delivered. Without a snapshot nothing runs past committed, so a
// straggler is a protocol bug.
func (e *Endpoint) handle(m Message) {
	if m.T < e.lastRecvT {
		panic(fmt.Sprintf("link: %s received non-monotone timestamp %v after %v",
			e.label, m.T, e.lastRecvT))
	}
	r := e.runner
	e.lastRecvT = m.T
	r.horizonOK = false
	if m.Kind == KindSync {
		e.Stats.RxSync++
		return
	}
	e.Stats.RxData += msgCount(m.Payload)
	st := &r.spec
	if st.dom != nil {
		e.spec.rx.Add(1)
	}
	if int(m.Sub) >= len(e.subs) || e.subs[m.Sub].sink == nil {
		panic(fmt.Sprintf("link: %s has no sink for sub-channel %d", e.label, m.Sub))
	}
	se := &e.subs[m.Sub]
	at := deliverAt(m.T, m.Hold, e.ch.Latency, se.lag)
	if at < r.committed {
		panic(fmt.Sprintf("link: %s data for %v below committed horizon %v", e.label, at, r.committed))
	}
	if st.snapValid {
		e.logInput(m) // may fall back to the snapshot and give it up
	}
	if st.snapValid && (st.rollbackPending || at <= r.sched.MaxExec()) {
		// Straggler (or riding one already detected this drain): state will
		// rewind below at, and the logged copy replays. The original payload
		// is not delivered, so return any pooled resources now.
		st.rollbackPending = true
		core.ReleaseMessage(m.Payload)
		return
	}
	if at <= r.sched.MaxExec() {
		panic(fmt.Sprintf("link: %s straggler at %v (executed to %v) with no snapshot",
			e.label, at, r.sched.MaxExec()))
	}
	// A speculative batch leaves the clock at its cap even when the window's
	// tail was empty; pull it back so the delivery is not in the past.
	r.sched.Rewind(at)
	// Deliveries carry exactly (sink, payload), so they go in as typed
	// delivery events with no capturing closure — the receive path
	// allocates nothing per data message.
	r.sched.PostDelivery(at, se.src, se.sink, m.Payload)
}
