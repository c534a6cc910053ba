package link

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// DirectPort is the sequential-mode counterpart of an Endpoint: it delivers
// messages through a shared scheduler instead of a pipe between goroutines.
// Delivery time (send time + latency + the sink's reaction lag) and
// event-ordering source are chosen
// exactly as the coupled path chooses them, so a simulation wired with
// DirectPorts is event-for-event identical to one wired with Channels.
type DirectPort struct {
	sched *sim.Scheduler
	lat   sim.Time
	lag   sim.Time // the sink's core.LagOf, read once
	src   int32
	sink  core.Sink

	// Stats counts data messages for parity with Endpoint accounting.
	Stats Counters
}

// NewDirectPort creates a port delivering to sink after lat, using src as
// the delivery events' ordering source.
func NewDirectPort(sched *sim.Scheduler, lat sim.Time, src int32, sink core.Sink) *DirectPort {
	if lat <= 0 {
		panic("link: direct port needs positive latency")
	}
	return &DirectPort{sched: sched, lat: lat, lag: core.LagOf(sink), src: src, sink: sink}
}

// Send implements core.Port.
func (p *DirectPort) Send(payload core.Message) {
	at := deliverAt(p.sched.Now(), p.lat, p.lag)
	p.Stats.TxData += msgCount(payload)
	// Typed delivery event: the (sink, payload) pair lives in the queue
	// slot, so sequential-mode message delivery allocates nothing.
	p.sched.PostDelivery(at, p.src, p.sink, payload)
}
