package link

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Kind distinguishes payload-carrying messages from pure synchronization
// ("null") messages.
type Kind uint8

const (
	// KindSync carries no payload; it only advances the peer's horizon.
	KindSync Kind = iota
	// KindData carries a payload for a sub-channel.
	KindData
)

// Message is one unit on a channel. T is the sender's virtual clock at send
// time, and the only time synchronization reads; Hold is how long after T
// the payload leaves the sender (see core.Port), so the receiver processes
// it at T + Hold + channel latency (+ its sink's lag). Sub names the logical
// sub-channel for trunk (multiplexed) channels; plain channels use
// sub-channel 0. Sync messages carry neither a hold nor a payload.
type Message struct {
	T       sim.Time
	Hold    sim.Time
	Kind    Kind
	Sub     uint16
	Payload core.Message
}

// MultiMessage is implemented by payloads that batch several logical
// messages into one physical channel message (e.g. a NIC RX batch). The
// adapter counters credit Count messages per send/receive so profiler
// output and the decomposition model's per-link message totals stay
// identical to an unbatched run — batching changes how many events cross
// the channel, never how much traffic is accounted.
type MultiMessage interface {
	Count() int
}

// msgCount returns the number of logical messages payload represents.
func msgCount(payload core.Message) uint64 {
	if m, ok := payload.(MultiMessage); ok {
		return uint64(m.Count())
	}
	return 1
}

// Counters is the lightweight profiler instrumentation embedded in every
// adapter, mirroring the paper's three per-adapter counters: cycles blocked
// waiting for synchronization, messages sent, and messages processed.
// WaitNanos and ProcNanos are wall-clock nanoseconds; PeakDepth is the
// deepest incoming-queue backlog ever observed at publication time; Parks
// counts waits that outlasted the yields and parked on the pipe's gate;
// the remaining fields are message counts.
//
// Concurrency contract: every field of an Endpoint's Stats is written only
// by the runner that owns the endpoint — Tx* in SendSub on the sender's
// goroutine, Rx*/ProcNanos/WaitNanos/Parks in the owner's
// drain/handle/block paths — so the multi-core executor needs no atomics
// here. Aggregation (Runner.Counters, the profiler's samplers) happens
// either on the owning runner's scheduler or after Group.Run returns, which
// happens-after every runner goroutine exits. TestParallelProfilingRace
// holds this to -race.
type Counters struct {
	WaitNanos uint64 `json:"wait"`  // blocked waiting for the peer's sync/data
	ProcNanos uint64 `json:"proc"`  // spent handling incoming messages
	PeakDepth uint64 `json:"depth"` // max incoming queue depth seen (messages)
	Parks     uint64 `json:"parks"` // waits that ended parked on the gate
	TxData    uint64 `json:"txd"`
	TxSync    uint64 `json:"txs"`
	RxData    uint64 `json:"rxd"`
	RxSync    uint64 `json:"rxs"`
}

// Add accumulates o into c. PeakDepth sums like the rest: a runner's total
// reads as the aggregate backlog capacity its endpoints ever needed.
func (c *Counters) Add(o Counters) {
	c.WaitNanos += o.WaitNanos
	c.ProcNanos += o.ProcNanos
	c.PeakDepth += o.PeakDepth
	c.Parks += o.Parks
	c.TxData += o.TxData
	c.TxSync += o.TxSync
	c.RxData += o.RxData
	c.RxSync += o.RxSync
}
