// Package memsim is a modular multi-core memory-system simulator — the
// gem5 analog for the paper's "parallelizing sequential multi-core
// simulations" study (Fig. 7). Cores execute synthetic instruction blocks
// and issue memory transactions; private L1 hits are folded into block
// timing, misses travel over a port-based packetized interface to a shared
// memory controller, exactly the component boundary gem5's ports expose.
//
// The same components can be instantiated two ways:
//
//   - monolithic: one simulator component executes all cores and the memory
//     controller (sequential gem5 — its simulation cost lands in a single
//     cost account, so it cannot be spread over cores);
//   - split: each core is its own component and the memory controller is
//     another, connected through SplitSim channels whose latency is the
//     interconnect latency (the paper's ~1000-LoC gem5 adapter).
//
// Both instantiations produce identical simulated timing; the split one
// parallelizes. Tests verify the equivalence.
package memsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/slab"
)

// Params configures the synthetic multicore workload and timing model.
type Params struct {
	// ClockHz is the simulated core frequency.
	ClockHz int64
	// BlockInstrs is the number of instructions per compute block between
	// memory transactions.
	BlockInstrs int
	// CPI is cycles per instruction for L1-hit execution.
	CPI float64
	// MemLatency is the one-way interconnect latency core<->memory; in the
	// split instantiation it becomes the channel latency. Every block ends
	// in one shared-memory transaction (the block folds in the L1 hits);
	// memory pressure is tuned via BlockInstrs, keeping the workload
	// perfectly deterministic across instantiations.
	MemLatency sim.Time
	// MemService is the memory controller's per-transaction occupancy
	// (bandwidth bound: one transaction per MemService).
	MemService sim.Time
}

// DefaultParams models 4 GHz cores with a DDR-like shared memory.
func DefaultParams() Params {
	return Params{
		ClockHz:     4_000_000_000,
		BlockInstrs: 400,
		CPI:         1.0,
		MemLatency:  40 * sim.Nanosecond,
		MemService:  15 * sim.Nanosecond,
	}
}

// BlockTime returns the execution time of one compute block.
func (p Params) BlockTime() sim.Time {
	cycles := float64(p.BlockInstrs) * p.CPI
	return sim.Time(cycles * float64(sim.Second) / float64(p.ClockHz))
}

// Simulation-cost model: gem5-like detailed simulation burns roughly a
// microsecond of host CPU per simulated instruction-block plus a per-
// transaction cost at the memory controller.
const (
	// CostPerBlockNs is charged per executed compute block (core side).
	CostPerBlockNs = 180_000
	// CostPerMemTxnNs is charged per memory transaction (controller side);
	// the detailed DRAM/coherence model makes the controller the scaling
	// bottleneck as core counts grow.
	CostPerMemTxnNs = 41_000
)

// MemReq is a packetized memory read/write request. It travels as a
// *MemReq cut from its core's slab, and the controller answers with the
// same record as a *MemResp. A record is never written after it is sent
// and never reused, so it stays immutable like any other message:
// speculative input logs and snapshots keep the reference, and a
// transaction costs a share of a slab chunk instead of an allocation.
type MemReq struct {
	Core int
	ID   uint64
}

// MemResp completes a MemReq.
type MemResp struct {
	Core int
	ID   uint64
}

// Core simulates one processor core running the synthetic workload. It
// implements core.Component; wire its port to a memory controller (split)
// or drive it from a Monolithic wrapper.
type Core struct {
	name string
	id   int
	p    Params
	env  core.Env
	own  core.CostAccount
	cost *core.CostAccount

	memPort core.Port
	pending uint64
	// reqs hands out the request records; one is cut per transaction.
	reqs slab.Slab[MemReq]

	// Blocks counts completed compute blocks (the progress metric used to
	// validate split == monolithic).
	Blocks uint64
	// StallTime accumulates time waiting on memory.
	StallTime sim.Time

	end     sim.Time
	issueAt sim.Time

	// blockDur caches BlockTime(). The first block's completion posts as a
	// named event (blockH) so a pending one serializes into checkpoints;
	// every later block ends at its response's delivery (coreSink).
	blockDur sim.Time
	blockH   int32

	respSink coreSink
}

// coreSink delivers memory responses to its core. A response only starts
// the next compute block, so the sink lags blockDur (core.Lagger): the
// delivery is the block's end, and the response arrived blockDur earlier.
// It is pointer-comparable, so delivery events targeting it can be named in
// checkpoints.
type coreSink struct{ c *Core }

// Deliver implements core.Sink: at is the end of the block the response
// started.
func (s *coreSink) Deliver(at sim.Time, m core.Message) {
	c := s.c
	c.onResp(at-c.blockDur, m)
	c.blockDone()
}

// Lag implements core.Lagger.
func (s *coreSink) Lag() sim.Time { return s.c.blockDur }

// Discard implements sim.Discarder: a response that arrived before the run
// stopped still ends the stall it answered.
func (s *coreSink) Discard(at sim.Time, m core.Message) {
	c := s.c
	if arrived := at - c.blockDur; arrived < c.env.Now() {
		c.onResp(arrived, m)
	}
}

// NewCore creates core number id.
func NewCore(id int, p Params) *Core {
	c := &Core{name: fmt.Sprintf("core%d", id), id: id, p: p}
	c.cost = &c.own
	c.blockDur = p.BlockTime()
	c.respSink.c = c
	return c
}

// UseCost redirects the core's simulation-cost charges to a shared account
// (used by the monolithic instantiation).
func (c *Core) UseCost(a *core.CostAccount) { c.cost = a }

// Name implements core.Component.
func (c *Core) Name() string { return c.name }

// Attach implements core.Component; block completions register as a named
// event so a checkpoint can carry them by name.
func (c *Core) Attach(env core.Env) {
	c.env = env
	c.blockH = env.RegisterNamed("memsim/"+c.name+"/block",
		func(sim.NamedArgs) { c.blockDone() })
}

// Cost implements core.Coster.
func (c *Core) Cost() *core.CostAccount { return c.cost }

// TimeTaxNsPerVirtualUs reports the split-gem5 per-process idle cost.
func (c *Core) TimeTaxNsPerVirtualUs() float64 { return 50 }

// BindMem sets the outgoing port toward the memory controller.
func (c *Core) BindMem(p core.Port) { c.memPort = p }

// MemSink returns the sink receiving memory responses.
func (c *Core) MemSink() core.Sink { return &c.respSink }

// Start implements core.Component: it runs the first compute block, whose
// completion issues the first memory transaction.
func (c *Core) Start(end sim.Time) {
	c.end = end
	c.env.PostNamed(c.env.Now()+c.blockDur, c.blockH, sim.NamedArgs{})
}

// blockDone fires when the block's execution time has elapsed.
func (c *Core) blockDone() {
	c.Blocks++
	c.cost.Charge(CostPerBlockNs)
	c.pending++
	c.issueAt = c.env.Now()
	req := c.reqs.New()
	*req = MemReq{Core: c.id, ID: c.pending}
	c.memPort.Send(req, 0)
}

// onResp ends the stall of a response that arrived at arrived.
func (c *Core) onResp(arrived sim.Time, m core.Message) {
	resp := m.(*MemResp)
	if resp.ID != c.pending {
		panic("memsim: out-of-order memory response")
	}
	c.StallTime += arrived - c.issueAt
}

// Mem is the shared memory controller component.
type Mem struct {
	name string
	p    Params
	env  core.Env
	own  core.CostAccount
	cost *core.CostAccount

	ports map[int]core.Port // per-core response ports

	busyUntil sim.Time
	// Txns counts served transactions.
	Txns uint64

	// pend is the FIFO of accepted requests awaiting their service slot;
	// each record goes back to its core as the response. Service
	// completions fire in issue order (busyUntil is non-decreasing and
	// posts at equal times keep posting order), so one named event (serveH)
	// replaces a closure per transaction.
	pend     []*MemReq
	pendHead int
	serveH   int32

	reqSink memSink
}

// memSink delivers memory requests to the controller. No slot ends sooner
// than MemService after its request arrives, so the sink lags MemService
// (core.Lagger) and books the slot from the arrival, at − MemService.
// Pointer-comparable for checkpoint naming, like coreSink.
type memSink struct{ m *Mem }

// Deliver implements core.Sink.
func (s *memSink) Deliver(at sim.Time, msg core.Message) { s.m.onReq(at-s.m.p.MemService, msg) }

// Lag implements core.Lagger.
func (s *memSink) Lag() sim.Time { return s.m.p.MemService }

// Discard implements sim.Discarder: a request that arrived before the run
// stopped was accepted, so it counts as a transaction with its cost.
func (s *memSink) Discard(at sim.Time, _ core.Message) {
	m := s.m
	if at-m.p.MemService < m.env.Now() {
		m.cost.Charge(CostPerMemTxnNs)
		m.Txns++
	}
}

// NewMem creates the controller.
func NewMem(p Params) *Mem {
	m := &Mem{name: "memctl", p: p, ports: make(map[int]core.Port)}
	m.cost = &m.own
	m.reqSink.m = m
	return m
}

// UseCost redirects the controller's cost charges to a shared account.
func (m *Mem) UseCost(a *core.CostAccount) { m.cost = a }

// Name implements core.Component.
func (m *Mem) Name() string { return m.name }

// Attach implements core.Component; service completions register as a
// named event.
func (m *Mem) Attach(env core.Env) {
	m.env = env
	m.serveH = env.RegisterNamed("memsim/"+m.name+"/serve",
		func(sim.NamedArgs) { m.serveNext() })
}

// Start implements core.Component.
func (m *Mem) Start(end sim.Time) {}

// Cost implements core.Coster.
func (m *Mem) Cost() *core.CostAccount { return m.cost }

// TimeTaxNsPerVirtualUs reports the controller's idle simulation cost.
func (m *Mem) TimeTaxNsPerVirtualUs() float64 { return 20 }

// BindCore sets the response port toward core id.
func (m *Mem) BindCore(id int, p core.Port) { m.ports[id] = p }

// ReqSink returns the sink receiving memory requests.
func (m *Mem) ReqSink() core.Sink { return &m.reqSink }

// onReq serves a transaction that arrived at arrived: bandwidth-bound
// occupancy, then respond.
func (m *Mem) onReq(arrived sim.Time, msg core.Message) {
	req := msg.(*MemReq)
	m.cost.Charge(CostPerMemTxnNs)
	m.Txns++
	start := max(arrived, m.busyUntil)
	m.busyUntil = start + m.p.MemService
	if _, ok := m.ports[req.Core]; !ok {
		panic(fmt.Sprintf("memsim: no port for core %d", req.Core))
	}
	m.pend = append(m.pend, req)
	m.env.PostNamed(m.busyUntil, m.serveH, sim.NamedArgs{})
}

// serveNext completes the oldest pending transaction, answering in the
// request's own record: a response carries the request's core and ID.
func (m *Mem) serveNext() {
	req := m.pend[m.pendHead]
	m.pend[m.pendHead] = nil
	m.pendHead++
	if m.pendHead == len(m.pend) {
		m.pend = m.pend[:0]
		m.pendHead = 0
	}
	m.ports[req.Core].Send((*MemResp)(req), 0)
}
