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
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/sim"
)

// Side describes one end of a connection: the owning component (which
// determines the executing runner in coupled mode), how to hand the
// component its outgoing port, and the sink receiving incoming messages.
type Side struct {
	Comp core.Component
	Bind func(core.Port)
	Sink core.Sink
}

// channel is the one connection record: a timestamped FIFO pair with a
// latency — also its synchronization quantum — carrying one logical link
// between two components, indexed by end (0 = A, 1 = B): how each end
// receives its outgoing port, the sink taking its incoming messages, and the
// ordering source of deliveries to that sink. A remote connection is a
// channel whose B end lives in another OS process (comp[1] == nil). How a
// channel is wired is decided per execution from the runner groups of its
// two ends; the plan bundles cut channels into shared synchronized links.
type channel struct {
	name    string
	latency sim.Time
	comp    [2]core.Component // comp[1] == nil: the peer is out of process
	bind    [2]func(core.Port)
	sink    [2]core.Sink
	src     [2]int32

	// Live wiring of the latest execution, which also carries the message
	// counters ModelGraph and checkpoints read: direct ports when both ends
	// share a runner group (ports[x] is what end x sends on), otherwise the
	// endpoints of the synchronized link.Channel the plan bundled the
	// channel into (ep[x] is end x's), on sub-channel sub of it. A remote
	// channel's local endpoint is not per execution: it is built with its
	// link.Remote at registration, because the caller hands the Remote to a
	// proxy supervisor before anything runs.
	ports [2]*link.DirectPort
	ep    [2]*link.Endpoint
	sub   uint16
}

// groups returns the runner groups of the channel's two ends under pl; the
// out-of-process end of a remote channel is group -1, so a remote channel is
// never intra-group.
func (c *channel) groups(pl *ExecutionPlan) [2]int {
	g := [2]int{pl.grpOf[c.comp[0]], -1}
	if c.comp[1] != nil {
		g[1] = pl.grpOf[c.comp[1]]
	}
	return g
}

// txData returns the data messages each end has sent, read from whichever
// wiring is live (zero before the first execution). On a bundled endpoint
// only the channel's own sub-channel counts.
func (c *channel) txData() (a, b uint64) {
	var tx [2]uint64
	for x := range tx {
		if p := c.ports[x]; p != nil {
			tx[x] = p.Stats.TxData
		} else if ep := c.ep[x]; ep != nil {
			tx[x] = ep.TxData(c.sub)
		}
	}
	return tx[0], tx[1]
}

// setTxData restores per-end totals onto the live wiring of a channel both of
// whose ends are local.
func (c *channel) setTxData(a, b uint64) {
	if c.ports[0] != nil {
		c.ports[0].Stats.TxData, c.ports[1].Stats.TxData = a, b
		return
	}
	c.ep[0].SetTxData(c.sub, a)
	c.ep[1].SetTxData(c.sub, b)
}

// ErrBadChannel reports a channel that cannot be wired: a non-positive
// latency, a nil Bind or Sink on a local end, or a name another channel
// already uses. Plan returns it wrapped with the channel's name and the
// reason.
var ErrBadChannel = errors.New("orch: bad channel")

// check returns the first reason the channel cannot be wired, "" when it can.
func (c *channel) check() string {
	if c.latency <= 0 {
		return fmt.Sprintf("latency %v is not positive (it is the synchronization lookahead)", c.latency)
	}
	for x, comp := range c.comp {
		if comp != nil && (c.bind[x] == nil || c.sink[x] == nil) {
			return fmt.Sprintf("end %s has a nil Bind or Sink", "ab"[x:x+1])
		}
	}
	return ""
}

// Simulation is a configured set of components and connections.
type Simulation struct {
	comps   []core.Component
	srcOf   map[core.Component]int32
	chans   []*channel // registration order
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

// addChannel registers a channel between sides a and b and assigns its two
// ordering sources: the first to deliveries into end A's sink, the second to
// end B's.
func (s *Simulation) addChannel(name string, latency sim.Time, a, b Side) *channel {
	c := &channel{name: name, latency: latency,
		comp: [2]core.Component{a.Comp, b.Comp},
		bind: [2]func(core.Port){a.Bind, b.Bind},
		sink: [2]core.Sink{a.Sink, b.Sink},
		src:  [2]int32{s.nextSrc, s.nextSrc + 1}}
	s.nextSrc += 2
	s.chans = append(s.chans, c)
	return c
}

// Connect wires a bidirectional channel with the given latency between two
// sides. A channel that cannot be wired (see ErrBadChannel) is reported by
// Plan. Channels cut by a placement between the same pair of runner groups
// at the same latency share one synchronized link — the trunk adapter,
// applied by Plan.
func (s *Simulation) Connect(name string, latency sim.Time, a, b Side) {
	s.mustHave(a.Comp, name)
	s.mustHave(b.Comp, name)
	s.addChannel(name, latency, a, b)
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
// to the monolithic one. Simulations with remote connections run under the
// conservative mode at any placement; RunSequential panics. A non-positive
// latency has no channel to build: the result is nil and Plan reports
// ErrBadChannel.
func (s *Simulation) ConnectRemote(name string, latency sim.Time, local Side, sideA bool) *link.Remote {
	s.mustHave(local.Comp, name)
	c := s.addChannel(name, latency, local, Side{})
	if !sideA {
		// The local end is the mirrored connection's B: its sink takes the
		// pair's second source.
		c.src[0] = c.src[1]
	}
	if latency <= 0 {
		return nil
	}
	var remote *link.Remote
	c.ep[0], remote = link.NewHalf(name, latency)
	return remote
}

func (s *Simulation) mustHave(c core.Component, conn string) {
	if _, ok := s.srcOf[c]; !ok {
		panic(fmt.Sprintf("orch: connection %s references unregistered component", conn))
	}
}

// remoteChannels counts the channels whose peer is out of process.
func (s *Simulation) remoteChannels() int {
	n := 0
	for _, c := range s.chans {
		if c.comp[1] == nil {
			n++
		}
	}
	return n
}

// localChans returns the channels with both ends in this process, in
// registration order: the layout of the checkpoint's conns section and of
// ModelGraph's per-channel link list.
func (s *Simulation) localChans() []*channel {
	var local []*channel
	for _, c := range s.chans {
		if c.comp[1] != nil {
			local = append(local, c)
		}
	}
	return local
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

// ModelGraph converts a finished run into the decomposition performance
// model's inputs: one Comp per component (event costs plus fidelity time
// tax over duration) and one Link per synchronized channel between a pair
// of components at one latency, with its observed data-message count —
// channels the plan would bundle onto one endpoint pair fold into one link
// with the summed count, so the model prices the bundles the executor runs.
// Message counts come from whichever wiring the last run used: direct ports
// for co-located channels (sequential mode included), channel endpoints for
// coupled ones.
func (s *Simulation) ModelGraph(duration sim.Time) ([]decomp.Comp, []decomp.Link) {
	idx := make(map[core.Component]int, len(s.comps))
	comps := make([]decomp.Comp, len(s.comps))
	for i, c := range s.comps {
		idx[c] = i
		comps[i] = decomp.Comp{Name: c.Name(), BusyNs: decomp.BusyOf(c, duration)}
	}
	var links []decomp.Link
	for _, c := range s.localChans() {
		a, b := c.txData()
		links = append(links, decomp.Link{A: idx[c.comp[0]], B: idx[c.comp[1]], Msgs: a + b, Quantum: c.latency})
	}
	// A per-component placement always covers comps, so the fold cannot fail.
	comps, links, _ = decomp.MergePlacement(comps, links, decomp.PerComponent(len(comps)))
	return comps, links
}
