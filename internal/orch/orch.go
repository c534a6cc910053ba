// Package orch is the SplitSim orchestration runtime: it takes a set of
// component simulators and channel connections, assigns deterministic event
// ordering sources, wires ports to sinks, and executes the simulation under
// a placement of components onto runner groups — all on one scheduler
// (sequential: fast, for sweeps), one goroutine per component synchronized
// through SplitSim channels (the paper's process-parallel architecture), or
// anything in between. One executor (ExecutionPlan.Execute) runs every
// placement and produces identical simulation results; runs with more than
// one group additionally produce per-adapter synchronization/communication
// counters for the profiler.
package orch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Side describes one end of a connection: the owning component (which
// determines the executing runner in coupled mode), how to hand the
// component its outgoing port, and the sink receiving incoming messages.
type Side struct {
	Comp core.Component
	Bind func(core.Port)
	Sink core.Sink
}

type connection struct {
	name    string
	latency sim.Time
	syncIv  sim.Time
	a, b    Side
	idA     int32 // ordering source for deliveries to a.Sink
	idB     int32 // ordering source for deliveries to b.Sink

	// Exactly one wiring is live after a run, and ExecutionPlan.wire clears
	// the other: direct ports when both ends share a runner group (sequential
	// mode, or co-located in a placed run), channel endpoints when the ends
	// are in different groups. Both carry the message counters ModelGraph
	// reads.
	portAB, portBA *link.DirectPort
	epA, epB       *link.Endpoint
}

// trunkConn is a multiplexed connection: several logical links between the
// same pair of components carried over one synchronized channel.
type trunkConn struct {
	name    string
	latency sim.Time
	syncIv  sim.Time
	compA   core.Component
	compB   core.Component
	pairs   []TrunkPair
	idsA    []int32
	idsB    []int32

	// Live wiring for accounting, mirroring connection: per-pair direct
	// ports intra-group, one trunked channel's endpoints cross-group.
	ports    []*link.DirectPort
	epA, epB *link.Endpoint
}

// TrunkPair is one logical link inside a trunk connection.
type TrunkPair struct {
	BindA func(core.Port)
	SinkA core.Sink
	BindB func(core.Port)
	SinkB core.Sink
}

// remoteConn is one side of a connection whose peer component lives in
// another OS process: the local endpoint is wired like any channel side,
// and the spliced link.Remote half is pumped by a proxy supervisor
// (package proxy) over the scale-out transport.
type remoteConn struct {
	name   string
	side   Side
	id     int32 // ordering source for deliveries to side.Sink
	ep     *link.Endpoint
	remote *link.Remote
}

// Simulation is a configured set of components and connections.
type Simulation struct {
	comps   []core.Component
	srcOf   map[core.Component]int32
	conns   []*connection
	trunks  []*trunkConn
	remotes []*remoteConn
	auxs    []auxEntry
	nextSrc int32

	// Group is the runner group of the latest execution — one runner per
	// placement group, a single endpoint-less runner after a sequential
	// run — for post-run inspection (event counts, sync counters).
	Group *link.Group

	// PreRun, when set, is invoked by every execution after all runners
	// and channels are wired but before the run starts — the profiler's
	// attachment point.
	PreRun func(*link.Group)
}

// New creates an empty simulation.
func New() *Simulation {
	return &Simulation{srcOf: make(map[core.Component]int32), nextSrc: 1}
}

// Add registers a component. Registration order fixes its event-ordering
// source, so callers must add components in a deterministic order.
func (s *Simulation) Add(c core.Component) {
	if _, dup := s.srcOf[c]; dup {
		panic("orch: component " + c.Name() + " added twice")
	}
	s.srcOf[c] = s.nextSrc
	s.nextSrc++
	s.comps = append(s.comps, c)
}

// Components returns the registered components in order.
func (s *Simulation) Components() []core.Component { return s.comps }

// NumComponents returns the component count — the number of simulator
// processes, and hence cores, the configuration needs in the paper's
// accounting.
func (s *Simulation) NumComponents() int { return len(s.comps) }

// Connect wires a bidirectional channel with the given latency between two
// sides. syncInterval <= 0 defaults to the latency.
func (s *Simulation) Connect(name string, latency, syncInterval sim.Time, a, b Side) {
	s.mustHave(a.Comp, name)
	s.mustHave(b.Comp, name)
	c := &connection{name: name, latency: latency, syncIv: syncInterval, a: a, b: b,
		idA: s.nextSrc, idB: s.nextSrc + 1}
	s.nextSrc += 2
	s.conns = append(s.conns, c)
}

// ConnectTrunk wires several logical links between compA and compB over a
// single synchronized channel — the paper's trunk adapter. In sequential
// mode the multiplexing is immaterial and each pair becomes a direct link.
func (s *Simulation) ConnectTrunk(name string, latency, syncInterval sim.Time,
	compA, compB core.Component, pairs []TrunkPair) {
	s.mustHave(compA, name)
	s.mustHave(compB, name)
	t := &trunkConn{name: name, latency: latency, syncIv: syncInterval,
		compA: compA, compB: compB, pairs: pairs}
	for range pairs {
		t.idsA = append(t.idsA, s.nextSrc)
		t.idsB = append(t.idsB, s.nextSrc+1)
		s.nextSrc += 2
	}
	s.trunks = append(s.trunks, t)
}

// Reserve advances the event-ordering source counter by n without
// registering anything. Partitioned processes use it to stand in for
// components that live in the peer process, keeping source-id assignment
// — and therefore event ordering — aligned with the monolithic run: every
// process scripts the SAME component/connection sequence, registering its
// own pieces and reserving the peer's.
func (s *Simulation) Reserve(n int32) {
	if n < 0 {
		panic("orch: Reserve with negative count")
	}
	s.nextSrc += n
}

// ConnectRemote wires the local side of a channel whose peer component
// runs in another process — the distributed-run analog of Connect. The
// returned link.Remote is the transport-facing half; hand it to a
// proxy.Supervisor before running. sideA says whether this process holds
// side A of the mirrored connection: Connect assigns the first id to side
// A's sink and the second to side B's, and the two processes must make the
// same choice from opposite ends for a distributed run to be bit-identical
// to the monolithic one. Simulations with remote connections only execute
// coupled; RunSequential panics.
func (s *Simulation) ConnectRemote(name string, latency, syncInterval sim.Time, local Side, sideA bool) *link.Remote {
	s.mustHave(local.Comp, name)
	id := s.nextSrc
	if !sideA {
		id = s.nextSrc + 1
	}
	s.nextSrc += 2
	ep, remote := link.NewHalf(name, latency, syncInterval)
	rc := &remoteConn{name: name, side: local, id: id, ep: ep, remote: remote}
	s.remotes = append(s.remotes, rc)
	return remote
}

func (s *Simulation) mustHave(c core.Component, conn string) {
	if _, ok := s.srcOf[c]; !ok {
		panic(fmt.Sprintf("orch: connection %s references unregistered component", conn))
	}
}

// LiveFrames sums the outstanding pooled frames across all components —
// zero after a clean run plus end-of-run sweep, so tests and harnesses can
// assert the packet path leaks nothing.
func (s *Simulation) LiveFrames() uint64 {
	var n uint64
	for _, c := range s.comps {
		if fp, ok := c.(core.FramePooler); ok {
			n += fp.FrameStats().Live
		}
	}
	return n
}

// FrameStatsTable renders per-component frame-pool health (allocations,
// reuses, still-live frames) for components that own a pool.
func (s *Simulation) FrameStatsTable() *stats.Table {
	t := stats.NewTable("component", "frame_allocs", "frame_reuses", "frames_live")
	for _, c := range s.comps {
		if fp, ok := c.(core.FramePooler); ok {
			st := fp.FrameStats()
			t.Row(c.Name(), st.Allocs, st.Reuses, st.Live)
		}
	}
	return t
}

// ModelGraph converts a finished run into the decomposition performance
// model's inputs: one Comp per component (event costs plus fidelity time
// tax over duration) and one Link per synchronized channel with its
// observed data-message count. Trunked connections become a single link
// with the combined count — exactly the trunk adapter's saving. Message
// counts come from whichever wiring the last run used: direct ports for
// co-located channels (sequential mode included), channel endpoints for
// coupled ones.
func (s *Simulation) ModelGraph(duration sim.Time) ([]decomp.Comp, []decomp.Link) {
	idx := make(map[core.Component]int, len(s.comps))
	comps := make([]decomp.Comp, len(s.comps))
	for i, c := range s.comps {
		idx[c] = i
		comps[i] = decomp.Comp{Name: c.Name(), BusyNs: decomp.BusyOf(c, duration)}
	}
	var links []decomp.Link
	for _, c := range s.conns {
		var msgs uint64
		switch {
		case c.portAB != nil:
			msgs = c.portAB.Stats.TxData + c.portBA.Stats.TxData
		case c.epA != nil:
			msgs = c.epA.Stats.TxData + c.epB.Stats.TxData
		}
		q := c.syncIv
		if q <= 0 {
			q = c.latency
		}
		links = append(links, decomp.Link{A: idx[c.a.Comp], B: idx[c.b.Comp], Msgs: msgs, Quantum: q})
	}
	for _, t := range s.trunks {
		var msgs uint64
		for _, p := range t.ports {
			msgs += p.Stats.TxData
		}
		if t.epA != nil {
			msgs += t.epA.Stats.TxData + t.epB.Stats.TxData
		}
		q := t.syncIv
		if q <= 0 {
			q = t.latency
		}
		links = append(links, decomp.Link{A: idx[t.compA], B: idx[t.compB], Msgs: msgs, Quantum: q})
	}
	return comps, links
}
