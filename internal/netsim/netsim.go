// Package netsim is SplitSim-Go's protocol-level network simulator — the
// ns-3/OMNeT++ analog. It models hosts with UDP and TCP stacks (Reno and
// DCTCP congestion control), point-to-point links with serialization and
// propagation delay, and output-queued switches with drop-tail queues, ECN
// marking, programmable dataplanes (NetCache, Pegasus, PTP transparent
// clocks), and static shortest-path routing.
//
// A Network is one SplitSim component: it can run alone (pure
// protocol-level simulation), alongside detailed host simulators attached
// through external ports (mixed fidelity), or split into multiple partition
// components connected by trunk channels (parallelization through
// decomposition, package decomp).
package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slab"
)

// Simulation-cost model: how many nanoseconds of real CPU the protocol-level
// simulator spends per simulated action. These feed core.CostAccount and the
// decomp makespan model; they are calibrated to the relative speeds the
// paper reports (see EXPERIMENTS.md) rather than to any absolute machine.
const (
	// CostPerSwitchPacketNs is charged for each packet a switch forwards.
	CostPerSwitchPacketNs = 350
	// CostPerHostPacketNs is charged for each packet a protocol-level host
	// sends or receives (stack + app processing in the simulator).
	CostPerHostPacketNs = 500
	// CostPerBoundaryPacketNs is the extra cost of serializing a packet
	// onto a SplitSim channel at a partition boundary.
	CostPerBoundaryPacketNs = 150
	// CostPerFlowEventNs is charged for each flow-level (background tier)
	// scheduler event attributed to this partition — a whole rate
	// recompute, not a packet, hence pricier than one switch hop but
	// amortized over every modeled flow.
	CostPerFlowEventNs = 400
)

// DefaultSwitchLatency is the fixed forwarding pipeline delay of a switch.
const DefaultSwitchLatency = 500 * sim.Nanosecond

// Network is a protocol-level network simulator instance. It implements
// core.Component.
type Network struct {
	name string
	env  core.Env
	end  sim.Time
	cost core.CostAccount
	seed uint64
	rng  *sim.Rand

	switches []*Switch
	hosts    []*Host
	exts     []*ExtPort
	hostByIP map[proto.IP]*Host

	// ifaces and swMem are where every interface and switch of this
	// network comes from — host, switch and external-port interfaces
	// alike — one heap object per chunk rather than per element. Both live
	// as long as the network.
	ifaces slab.Slab[Iface]
	swMem  slab.Slab[Switch]

	// regs holds named-event handlers registered before Attach (workload
	// re-arm hooks, the TCP RTO dispatcher); Attach registers them on the
	// scheduler under "net/<name>/<suffix>" in registration order, which is
	// deterministic across placements. See state.go for why closures on the
	// timer path migrated here.
	regs    []namedReg
	tcpRtoH int

	// pool recycles frames and their payload buffers; every frame the
	// network originates (SendUDP, TCP segments) or decodes at an external
	// port comes from here, and every terminal sink returns frames to it.
	pool proto.FramePool

	// encRx/encTx count frames decoded from / encoded onto partition
	// boundaries; the lazy Cost() recomputation charges them at
	// CostPerBoundaryPacketNs each.
	encRx, encTx uint64

	// flowEvents counts flow-level background-tier events attributed to
	// this partition (see flowsim); charged at CostPerFlowEventNs.
	flowEvents uint64

	// startHooks run at Start, after host applications — the attachment
	// point for non-host engines (the flow-level background tier) that must
	// seed their first event when the simulation begins. Restored runs skip
	// them: their scheduled work rides in the checkpoint's event section.
	startHooks []func()

	// SwitchLatency is the per-switch pipeline delay applied to every
	// forwarded packet.
	SwitchLatency sim.Time

	// partitionRouted marks a network built as one partition of a
	// multi-partition topology: its routes were installed globally by
	// Topology.Build and point through boundary links ComputeRoutes cannot
	// see. prefixRouted marks a network whose reachability lives in
	// aggregate (prefix) routes. Either makes ComputeRoutes refuse to run —
	// rewriting the tables locally would silently break cross-partition or
	// aggregate forwarding.
	partitionRouted bool
	prefixRouted    bool

	// rscratch is the working memory every switch's route compile reuses.
	// rtab holds each compiled table's candidate pool and actions, rstarts
	// its interval starts. A recompile leaves the old table unused in its
	// chunk: tables are rebuilt only when routes change after a compile.
	rscratch routeScratch
	rtab     slab.Slab[int32]
	rstarts  slab.Slab[uint32]

	started bool
}

// New creates an empty network simulator named name, with all randomness
// derived from seed.
func New(name string, seed uint64) *Network {
	n := &Network{
		name:          name,
		seed:          seed,
		rng:           sim.NewRand(seed),
		hostByIP:      make(map[proto.IP]*Host),
		SwitchLatency: DefaultSwitchLatency,
	}
	n.tcpRtoH = n.RegisterNamed("tcprto", n.tcpRTOFire)
	return n
}

// Name implements core.Component.
func (n *Network) Name() string { return n.name }

// Attach implements core.Component. Deferred named-event handlers register
// here, in deterministic order, under names scoped by the component name.
// Route tables still dirty from installs after the build compile here, on
// the building goroutine: the flow tier's replicas look up every
// partition's switches from their own runners during the run. Every
// interface facing a switch without a Dataplane is set to cut through.
func (n *Network) Attach(env core.Env) {
	n.env = env
	for i := range n.regs {
		n.regs[i].h = env.RegisterNamed("net/"+n.name+"/"+n.regs[i].suffix, n.regs[i].fn)
	}
	for _, h := range n.hosts {
		if h.iface != nil {
			h.iface.setCut()
		}
	}
	for _, sw := range n.switches {
		if sw.dirty {
			sw.compile()
		}
		for _, ifc := range sw.ifaces {
			ifc.setCut()
		}
	}
}

// Start implements core.Component: it starts every host's application.
func (n *Network) Start(end sim.Time) {
	n.end = end
	n.started = true
	for _, h := range n.hosts {
		if h.app != nil {
			h.app.Start(h)
		}
	}
	for _, fn := range n.startHooks {
		fn()
	}
}

// OnStart registers fn to run when the network starts, after host
// applications. Hooks run in registration order (deterministic for an
// identical build) and are skipped on StartRestored.
func (n *Network) OnStart(fn func()) { n.startHooks = append(n.startHooks, fn) }

// NoteFlowEvents attributes k flow-level background-tier events to this
// partition's cost account.
func (n *Network) NoteFlowEvents(k uint64) { n.flowEvents += k }

// End returns the simulation end time (valid after Start).
func (n *Network) End() sim.Time { return n.end }

// Env returns the component environment (valid after Attach).
func (n *Network) Env() core.Env { return n.env }

// Cost implements core.Coster. The account is refreshed lazily from the
// packet counters — Σ switch receives × CostPerSwitchPacketNs + Σ host
// sends/receives × CostPerHostPacketNs + boundary crossings ×
// CostPerBoundaryPacketNs — instead of charging in the per-packet inner
// loops; callers must read BusyNanos right after Cost().
func (n *Network) Cost() *core.CostAccount {
	var total uint64
	for _, s := range n.switches {
		total += s.RxPackets * CostPerSwitchPacketNs
	}
	for _, h := range n.hosts {
		total += (h.TxPackets + h.RxPackets) * CostPerHostPacketNs
	}
	total += (n.encRx + n.encTx) * CostPerBoundaryPacketNs
	total += n.flowEvents * CostPerFlowEventNs
	n.cost.Store(total)
	return &n.cost
}

// NewFrame returns a zeroed pooled frame owned by the caller; handing it to
// the stack (transmit, Inject) transfers ownership back to the simulator.
func (n *Network) NewFrame() *proto.Frame { return n.pool.Get() }

// FrameStats implements core.FramePooler.
func (n *Network) FrameStats() proto.PoolStats { return n.pool.Stats() }

// Switches returns all switches.
func (n *Network) Switches() []*Switch { return n.switches }

// node is anything that terminates an interface.
type node interface {
	receive(in *Iface, f *proto.Frame)
}

// AddSwitch creates a switch.
func (n *Network) AddSwitch(name string) *Switch {
	s := n.swMem.New()
	s.net, s.name = n, name
	s.cutSink.s = s
	n.switches = append(n.switches, s)
	return s
}

// AddHost creates a protocol-level host with address ip.
func (n *Network) AddHost(name string, ip proto.IP) *Host {
	h := &Host{
		net: n, name: name, ip: ip,
		mac: proto.MACFromID(uint32(ip)),
		// The host stream depends only on the experiment seed and the
		// host address, never on creation order, so any partitioning of
		// the same topology generates identical workloads.
		rng: sim.NewRand(n.seed ^ uint64(ip)*0x9e3779b97f4a7c15),
	}
	n.hosts = append(n.hosts, h)
	n.hostByIP[ip] = h
	return h
}

// newIface wires a fresh interface owned by o, carved from the network's
// interface slab.
func (n *Network) newIface(o node, rate int64, delay sim.Time) *Iface {
	i := n.ifaces.New()
	i.net, i.owner, i.rate, i.delay = n, o, rate, delay
	i.enqSink.i = i
	i.rxSink.i = i
	return i
}

// ConnectHostSwitch links host h to switch s with a full-duplex link of the
// given rate and one-way propagation delay. It returns the switch-side
// interface index.
func (n *Network) ConnectHostSwitch(h *Host, s *Switch, rate int64, delay sim.Time) int {
	hi := n.newIface(h, rate, delay)
	si := n.newIface(s, rate, delay)
	hi.peer, si.peer = si, hi
	if h.iface != nil {
		panic(fmt.Sprintf("netsim: host %s already connected", h.name))
	}
	h.iface = hi
	s.ifaces = append(s.ifaces, si)
	s.invalidateFlowCache()
	return len(s.ifaces) - 1
}

// ConnectSwitches links two switches, returning the interface index on each.
func (n *Network) ConnectSwitches(a, b *Switch, rate int64, delay sim.Time) (ai, bi int) {
	ia := n.newIface(a, rate, delay)
	ib := n.newIface(b, rate, delay)
	ia.peer, ib.peer = ib, ia
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	a.invalidateFlowCache()
	b.invalidateFlowCache()
	return len(a.ifaces) - 1, len(b.ifaces) - 1
}

// ExtPort attaches an external component (a detailed host's NIC, or a peer
// network partition) to a switch port. Frames leaving the switch through
// this port are encoded to bytes and sent on the bound core.Port as
// *proto.WireFrame; frames arriving from the external side enter through
// Deliver (ExtPort implements core.Sink) in the same form. A boundary always
// encodes, so no pool-owned *proto.Frame ever crosses to another runner.
type ExtPort struct {
	net   *Network
	name  string
	iface *Iface
	sw    *Switch
	out   core.Port
	ips   []proto.IP

	// RxFrames counts frames delivered from the external side.
	RxFrames uint64

	// outSink is the typed-delivery sink for this port's departure events
	// (see Iface.Enqueue): one queue slot per departing frame, no closure.
	outSink extOutSink
}

// extOutSink hands departed frames to ExtPort.sendOut from a typed delivery
// event.
type extOutSink struct{ p *ExtPort }

// Deliver implements core.Sink.
func (k *extOutSink) Deliver(_ sim.Time, m core.Message) {
	k.p.sendOut(m.(*proto.Frame))
}

// AddExternal creates an external port on switch s. The link's serialization
// rate is modeled here; propagation delay is the channel latency configured
// at wiring time. ips lists addresses reachable through this port, used by
// ComputeRoutes.
func (n *Network) AddExternal(s *Switch, name string, rate int64, ips ...proto.IP) *ExtPort {
	p := &ExtPort{net: n, name: name, sw: s, ips: ips}
	p.outSink.p = p
	ifc := n.newIface(s, rate, 0)
	ifc.ext = p
	p.iface = ifc
	s.ifaces = append(s.ifaces, ifc)
	s.invalidateFlowCache()
	n.exts = append(n.exts, p)
	return p
}

// Bind sets the outgoing port toward the external component. It must be
// called before the simulation starts.
func (p *ExtPort) Bind(out core.Port) { p.out = out }

// Iface returns the switch-side interface of this external port.
func (p *ExtPort) Iface() *Iface { return p.iface }

// Lag implements core.Lagger. A frame entering a switch without a
// Dataplane does nothing until its pipeline step, SwitchLatency after it
// arrives, so the port takes it then and runs the arrival and the pipeline
// step as one event, as an internal hop does (switchCutSink); the channel
// adds the pipeline delay to its lookahead. A Dataplane switch must see the
// frame at arrival: no lag.
func (p *ExtPort) Lag() sim.Time {
	if p.sw.Dataplane != nil {
		return 0
	}
	return p.net.SwitchLatency
}

// Deliver implements core.Sink: an encoded frame from the external component
// enters the switch — at its pipeline exit when the switch cuts through (see
// Lag), else at arrival. Decoded frames come from the network's pool and
// adopt the incoming wire buffer, so the boundary receive path allocates
// nothing in steady state.
func (p *ExtPort) Deliver(at sim.Time, m core.Message) {
	w, ok := m.(*proto.WireFrame)
	if !ok {
		panic(fmt.Sprintf("netsim: %s: unexpected message %T", p.name, m))
	}
	f := p.net.pool.Get()
	if err := proto.ParseFrameInto(f, w.B); err != nil {
		panic(fmt.Sprintf("netsim: %s: bad frame from external port: %v", p.name, err))
	}
	proto.PutWireFrame(w)
	p.net.encRx++
	p.RxFrames++
	if p.sw.Dataplane != nil {
		p.sw.receive(p.iface, f)
		return
	}
	p.sw.cutSink.Deliver(at, f)
}

// Discard implements sim.Discarder. A frame that arrived before the run
// stopped but was still in the switch pipeline is counted as the arrival
// would have counted it, on the port and on the switch.
func (p *ExtPort) Discard(at sim.Time, m core.Message) {
	if at-p.Lag() >= p.net.env.Now() {
		return
	}
	p.net.encRx++
	p.RxFrames++
	b := m.(*proto.WireFrame).B
	_, rest, err := proto.ParseEthernet(b)
	var ip proto.IPv4
	if err == nil {
		ip, _, err = proto.ParseIPv4(rest)
	}
	if err != nil {
		panic(fmt.Sprintf("netsim: %s: bad frame from external port: %v", p.name, err))
	}
	p.sw.countStopped(ip.Dst)
}

// sendOut serializes a frame to honest bytes in a pooled buffer, releases
// the frame and transmits the bytes to the external component.
func (p *ExtPort) sendOut(f *proto.Frame) {
	if p.out == nil {
		panic("netsim: external port " + p.name + " not bound")
	}
	p.net.encTx++
	p.out.Send(proto.GetWireFrame(proto.AppendFrame(p.net.pool.GetBuf(), f)))
	f.Release()
}
