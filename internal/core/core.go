// Package core defines the component model at the heart of SplitSim-Go:
// the vocabulary with which component simulators (host, NIC, network
// partition, memory-system piece) are composed into one end-to-end
// simulation.
//
// The model deliberately mirrors SimBricks/SplitSim. Components exchange
// timestamped messages over point-to-point channels with a fixed latency.
// A component never observes a message earlier than its send time plus the
// channel latency, which is what makes conservative parallel synchronization
// (package link) and sequential execution (package orch) produce identical
// results.
package core

import (
	"repro/internal/proto"
	"repro/internal/sim"
)

// Fidelity describes how much detail a component simulator models. Mixed-
// fidelity simulation — the paper's first technique — is the act of choosing
// different fidelities for different instances of the same component type.
type Fidelity int

const (
	// ProtocolLevel models only protocol behavior (the ns-3 analog): no
	// host software stack, no hardware detail.
	ProtocolLevel Fidelity = iota
	// Coarse is a functional full-system model with coarse timing, the
	// qemu-with-instruction-counting analog.
	Coarse
	// Detailed is a timing-accurate full-system model, the gem5 analog.
	Detailed
)

func (f Fidelity) String() string {
	switch f {
	case ProtocolLevel:
		return "protocol"
	case Coarse:
		return "qemu"
	case Detailed:
		return "gem5"
	default:
		return "unknown"
	}
}

// Message is anything that can travel over a channel between two component
// simulators. The channel never looks inside it: pacing and sizing are the
// sending component's job, and the receiving sink type-switches on it.
//
// Message is an alias of sim.Payload so the scheduler can store a delivery
// (sink + payload) by value in an event-queue slot instead of a heap-
// allocated closure; the two names describe the same interface at different
// layers.
type Message = sim.Payload

// Port is one direction of a channel as seen by the sending component. Send
// stamps the payload with the sender's current virtual time; the peer
// observes it exactly the channel's latency later (plus its sink's Lag).
// The latency belongs to the channel, not to the sender.
type Port interface {
	Send(payload Message)
}

// Sink receives messages from a peer's Port. Deliver runs at virtual time
// at = sendTime + latency (plus the sink's Lag, see Lagger) on the
// receiving component's scheduler. Like
// Message, Sink is an alias of the kernel-level sim.Sink so sinks plug
// straight into typed delivery events (sim.Scheduler.PostDelivery).
type Sink = sim.Sink

// Lagger is a Sink with a constant reaction lag: a message that arrives at
// sendTime + latency has no effect until Lag() later, so it is delivered
// then — Deliver runs at sendTime + latency + Lag(), and arrival is at −
// Lag(). A receiver that only acts a fixed delay after each arrival (a core
// resuming its next compute block, a switch pipeline) declares that delay
// here, and the channel carrying its input adds it to its lookahead. Lag
// must be non-negative and constant from wiring to the end of the run. A
// lagged sink that keeps counters of arrivals implements sim.Discarder, so
// a run that stops between a message's arrival and its delivery still
// counts it.
type Lagger interface {
	Sink
	Lag() sim.Time
}

// LagOf returns sink's reaction lag: Lag() for a Lagger, 0 otherwise.
func LagOf(sink Sink) sim.Time {
	if l, ok := sink.(Lagger); ok {
		return l.Lag()
	}
	return 0
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(at sim.Time, payload Message)

// Deliver implements Sink.
func (f SinkFunc) Deliver(at sim.Time, payload Message) { f(at, payload) }

// Env is a component's handle on virtual time. It pairs a scheduler with
// the component's stable event-ordering source. Components must schedule
// all local events through their Env: in sequential mode many components
// share one scheduler, and only the per-component source keeps same-time
// events of different components in an order identical to coupled mode.
type Env struct {
	Sched *sim.Scheduler
	Src   int32
}

// Now returns the current virtual time.
func (e Env) Now() sim.Time { return e.Sched.Now() }

// At schedules fn at absolute time t with the component's ordering source.
func (e Env) At(t sim.Time, fn func()) { e.Sched.AtSrc(t, e.Src, fn) }

// After schedules fn d after the current time.
func (e Env) After(d sim.Time, fn func()) { e.Sched.AtSrc(e.Sched.Now()+d, e.Src, fn) }

// PostDelivery schedules sink.Deliver(t, payload) as a typed delivery event
// with the component's ordering source and no capturing closure. It
// orders identically to At at the same call position — the substrate hot
// paths (switch forwarding, NIC DMA, host stack completion) use it to hand
// pooled frames and batches along without allocating.
func (e Env) PostDelivery(t sim.Time, sink Sink, payload Message) {
	e.Sched.PostDelivery(t, e.Src, sink, payload)
}

// Component is a simulator component that the orchestrator can run. A
// component is attached to an Env (its own runner's scheduler in coupled
// mode, a shared scheduler in sequential mode), then started once to seed
// its initial events.
type Component interface {
	// Name returns a stable, unique, human-readable identifier.
	Name() string
	// Attach binds the component to the environment that will execute its
	// events. Called exactly once, before Start.
	Attach(env Env)
	// Start schedules the component's initial events. end is the virtual
	// time at which the simulation will stop.
	Start(end sim.Time)
}

// UDPHandler receives a datagram delivered to a bound socket. It is shared
// by the protocol-level and detailed host simulators so that one
// application implementation runs unmodified at either fidelity — the
// code-reuse property the paper's mixed-fidelity case studies depend on.
type UDPHandler func(src proto.IP, srcPort uint16, payload []byte, virtual int)

// Host is what a host offers an application, at either fidelity: both the
// protocol-level netsim.Host and the detailed hostsim.Host satisfy it, so
// an app written once against Host runs on whichever tier an instantiation
// picks. Compute is free on protocol-level hosts and consumes CPU time on
// detailed ones — the modeling gap mixed fidelity trades on.
type Host interface {
	Now() sim.Time
	After(d sim.Time, fn func())
	Compute(d sim.Time, fn func())
	SendUDP(dst proto.IP, srcPort, dstPort uint16, payload []byte, virtual int)
	BindUDP(port uint16, fn UDPHandler)
	LocalIP() proto.IP
	Rand() *sim.Rand
}

// CostAccount accumulates modeled host-CPU nanoseconds for one component.
// The SplitSim performance model (package decomp) uses these totals to
// predict simulation runtime: a component that accounts N busy nanoseconds
// needs N nanoseconds of real CPU on the machine running the simulation.
type CostAccount struct {
	busy uint64
}

// Charge records ns nanoseconds of modeled simulation work.
func (a *CostAccount) Charge(ns uint64) { a.busy += ns }

// Store overwrites the accumulated total. Components that account cost
// lazily — recomputing it from packet counters when Cost() is read, instead
// of charging in their per-packet inner loop — use it to refresh the
// account at read time. Consumers must read BusyNanos immediately after
// Cost() and never retain the pointer across further simulation.
func (a *CostAccount) Store(ns uint64) { a.busy = ns }

// BusyNanos returns the total charged so far.
func (a *CostAccount) BusyNanos() uint64 { return a.busy }

// Coster is implemented by components that account their modeled cost.
type Coster interface {
	Cost() *CostAccount
}

// Releaser is implemented by messages that hold pooled resources (frames,
// batches). ReleaseMessage is called on every payload still queued when a
// run ends so pools balance and the frame-leak counters read zero.
type Releaser interface {
	Release()
}

// ReleaseMessage returns any pooled resources held by payload; messages
// without pooled state are ignored.
func ReleaseMessage(payload Message) {
	if r, ok := payload.(Releaser); ok {
		r.Release()
	}
}

// FramePooler is implemented by components that own a frame pool; the
// profiler and the orchestrator's pool-health table aggregate these
// counters per component.
type FramePooler interface {
	FrameStats() proto.PoolStats
}
