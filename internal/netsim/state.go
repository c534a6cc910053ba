package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Network implements core.Stateful: every piece of mutable simulation state
// — PRNGs, per-host and per-switch counters, interface transmitter clocks,
// installed TCP connection numerics — serializes, and WalkSinks enumerates
// every delivery sink a pending event can target, in build order.
//
// Not captured, by design: routing tables and topology (rebuilt
// deterministically from the same build calls), the switch flow cache (a
// pure cache; dropped caches only perturb FlowCacheHits, which is therefore
// excluded from checkpoint digests), and the set of TCP connections (their
// identity lives in callbacks only the build reproduces — a snapshot whose
// connections differ from the build's surfaces core.ErrNotCheckpointable).

// namedReg is one deferred named-event registration (see Network.Attach).
type namedReg struct {
	suffix string
	fn     func(sim.NamedArgs)
	h      int32
}

// RegisterNamed registers a named-event handler under a network-scoped
// suffix and returns an index for PostNamed. Before Attach the
// registration is deferred; afterwards it lands on the scheduler
// immediately. Registration order must be deterministic — it follows build
// order, like everything else here.
func (n *Network) RegisterNamed(suffix string, fn func(sim.NamedArgs)) int {
	r := namedReg{suffix: suffix, fn: fn, h: -1}
	if n.env.Sched != nil {
		r.h = n.env.RegisterNamed("net/"+n.name+"/"+suffix, fn)
	}
	n.regs = append(n.regs, r)
	return len(n.regs) - 1
}

// namedHandle resolves a RegisterNamed index to its scheduler handle.
func (n *Network) namedHandle(idx int) int32 {
	h := n.regs[idx].h
	if h < 0 {
		panic("netsim: " + n.name + ": PostNamed before Attach")
	}
	return h
}

// PostNamed schedules the idx-th registered handler at absolute time t. It
// orders identically to an Env.At at the same call position.
func (n *Network) PostNamed(t sim.Time, idx int, args sim.NamedArgs) {
	n.env.PostNamed(t, n.namedHandle(idx), args)
}

// RegisterNamed registers a handler scoped to the host's network.
func (h *Host) RegisterNamed(suffix string, fn func(sim.NamedArgs)) int {
	return h.net.RegisterNamed(suffix, fn)
}

// PostNamed schedules a registered handler d from now (mirroring Host.Post,
// which the closure-based call sites used).
func (h *Host) PostNamed(d sim.Time, idx int, args sim.NamedArgs) {
	h.net.PostNamed(h.net.env.Now()+d, idx, args)
}

// StartRestored implements core.Stateful: adopt the run window but seed no
// initial events — in particular, host applications do not start, because
// their scheduled work rides in the checkpoint's event section.
func (n *Network) StartRestored(end sim.Time) {
	n.end = end
	n.started = true
}

// WalkSinks implements core.Stateful in build order, which identical builds
// reproduce exactly.
func (n *Network) WalkSinks(fn func(s core.Sink)) {
	for _, h := range n.hosts {
		if h.iface != nil {
			fn(&h.iface.enqSink)
			fn(&h.iface.rxSink)
		}
	}
	for _, sw := range n.switches {
		for _, ifc := range sw.ifaces {
			fn(&ifc.enqSink)
			fn(&ifc.rxSink)
		}
		fn(&sw.cutSink)
	}
}

func snapshotIface(e *snap.Encoder, i *Iface) {
	e.I64(int64(i.busyUntil))
	e.U64(i.TxPackets)
	e.U64(i.TxBytes)
	e.U64(i.Drops)
	e.U64(i.Marks)
	e.I64(i.bgRate)
	e.I64(int64(i.bgDelay))
}

func restoreIface(d *snap.Decoder, i *Iface) {
	i.busyUntil = sim.Time(d.I64())
	i.TxPackets = d.U64()
	i.TxBytes = d.U64()
	i.Drops = d.U64()
	i.Marks = d.U64()
	i.bgRate = d.I64()
	i.bgDelay = sim.Time(d.I64())
}

// SnapshotState implements core.Stateful.
func (n *Network) SnapshotState(e *snap.Encoder) error {
	e.U64(n.rng.State())
	e.U64(n.bndRx)
	e.U64(n.bndTx)
	e.U64(n.flowEvents)
	e.U32(uint32(len(n.hosts)))
	for _, h := range n.hosts {
		e.U64(uint64(h.ip)) // identity check on restore
		e.U64(h.RxPackets)
		e.U64(h.TxPackets)
		e.U64(h.rng.State())
		e.Bool(h.iface != nil)
		if h.iface != nil {
			snapshotIface(e, h.iface)
		}
		h.Sockets.Snapshot(e)
	}
	e.U32(uint32(len(n.switches)))
	for _, sw := range n.switches {
		e.U64(sw.RxPackets)
		e.U64(sw.NoRoute)
		e.U32(uint32(len(sw.ifaces)))
		for _, ifc := range sw.ifaces {
			snapshotIface(e, ifc)
		}
	}
	e.U32(uint32(len(n.exts)))
	for _, p := range n.exts {
		e.U64(p.RxFrames)
	}
	return nil
}

// RestoreState implements core.Stateful. It runs on a freshly built,
// identically configured network after Attach; mismatched build shapes
// surface as typed errors.
func (n *Network) RestoreState(d *snap.Decoder) error {
	n.rng.SetState(d.U64())
	n.bndRx = d.U64()
	n.bndTx = d.U64()
	n.flowEvents = d.U64()
	if got := int(d.U32()); got != len(n.hosts) {
		return fmt.Errorf("%w: %s: snapshot has %d hosts, build has %d",
			core.ErrNotCheckpointable, n.name, got, len(n.hosts))
	}
	for _, h := range n.hosts {
		if ip := proto.IP(d.U64()); ip != h.ip {
			return fmt.Errorf("%w: %s: host order mismatch (%v vs %v)",
				core.ErrNotCheckpointable, n.name, ip, h.ip)
		}
		h.RxPackets = d.U64()
		h.TxPackets = d.U64()
		h.rng.SetState(d.U64())
		if d.Bool() {
			if h.iface == nil {
				return fmt.Errorf("%w: %s: host %s lost its interface",
					core.ErrNotCheckpointable, n.name, h.name)
			}
			restoreIface(d, h.iface)
		}
		if err := h.Sockets.Restore(d); err != nil {
			return fmt.Errorf("%s: host %s: %w", n.name, h.name, err)
		}
	}
	if got := int(d.U32()); got != len(n.switches) {
		return fmt.Errorf("%w: %s: snapshot has %d switches, build has %d",
			core.ErrNotCheckpointable, n.name, got, len(n.switches))
	}
	for _, sw := range n.switches {
		sw.RxPackets = d.U64()
		sw.NoRoute = d.U64()
		if got := int(d.U32()); got != len(sw.ifaces) {
			return fmt.Errorf("%w: %s: switch %s iface count mismatch",
				core.ErrNotCheckpointable, n.name, sw.name)
		}
		for _, ifc := range sw.ifaces {
			restoreIface(d, ifc)
		}
		// The flow cache restores empty: it is a pure cache, and refills
		// behavior-identically on first use.
		sw.invalidateFlowCache()
	}
	if got := int(d.U32()); got != len(n.exts) {
		return fmt.Errorf("%w: %s: snapshot has %d external ports, build has %d",
			core.ErrNotCheckpointable, n.name, got, len(n.exts))
	}
	for _, p := range n.exts {
		p.RxFrames = d.U64()
	}
	return d.Err()
}
