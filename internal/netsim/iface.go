package netsim

import (
	"repro/internal/proto"
	"repro/internal/sim"
)

// Iface is one direction's transmitter of a full-duplex point-to-point
// link. The output queue is virtual: the backlog is derived from how far
// busyUntil extends past the current time at the link's fixed rate, which is
// exact for a FIFO served at constant rate and avoids materializing a
// packet list.
type Iface struct {
	net   *Network
	owner node
	rate  int64    // bits per second; 0 means infinitely fast
	delay sim.Time // one-way propagation
	peer  *Iface   // nil when ext != nil
	ext   *ExtPort
	// cut is the peer's switch when that switch has no Dataplane, nil
	// otherwise; Network.Attach sets it. A frame sent toward a cut switch
	// takes one event for the link and the pipeline (see Switch.cutSink).
	cut *Switch

	busyUntil sim.Time

	// bgRate is the bandwidth currently reserved by the flow-level
	// background tier (flowsim) on this interface; bgDelay is the queueing
	// delay its standing backlog imposes on packet-tier traffic entering
	// here. Both change only at background rate-recompute events, via
	// Reserve, so the packet tier stays deterministic between them.
	bgRate  int64
	bgDelay sim.Time

	// QueueCapBytes bounds the output queue; beyond it packets drop.
	// Zero means unbounded.
	QueueCapBytes int
	// MarkThresholdBytes enables ECN CE marking of ECT packets when the
	// instantaneous backlog exceeds it (DCTCP-style step marking).
	// Zero disables marking.
	MarkThresholdBytes int

	// Statistics.
	TxPackets, TxBytes uint64
	Drops, Marks       uint64

	// enqSink and rxSink are the typed-delivery sinks for the two scheduled
	// hops a frame takes through this interface when its switch does not
	// cut through: the switch pipeline delay before Enqueue, and the
	// propagation delay before the peer receives. Embedded by value so the
	// forwarding path allocates nothing.
	enqSink ifaceEnqSink
	rxSink  ifaceRxSink
}

// ifaceEnqSink runs the switch-pipeline arrival: enqueue on the egress
// interface, then transparent-clock residence accounting.
type ifaceEnqSink struct{ i *Iface }

// Deliver implements core.Sink. at is the pipeline-arrival instant (the
// closure-based predecessor read env.Now() here, which equals at). The
// residence is written between admission and hand-off: an external port
// gives the frame away at enqueue, after which it may belong to another
// runner.
func (k *ifaceEnqSink) Deliver(at sim.Time, m sim.Payload) {
	i := k.i
	f := m.(*proto.Frame)
	depart := i.admit(f)
	if depart < 0 {
		return
	}
	if sw, ok := i.owner.(*Switch); ok && sw.TransparentClock {
		sw.addResidence(f, depart-at+i.net.SwitchLatency)
	}
	i.send(f, depart)
}

// ifaceRxSink runs the propagation arrival: the owning node receives the
// frame from this interface.
type ifaceRxSink struct{ i *Iface }

// Deliver implements core.Sink.
func (k *ifaceRxSink) Deliver(_ sim.Time, m sim.Payload) {
	k.i.owner.receive(k.i, m.(*proto.Frame))
}

// Rate returns the configured link rate in bits per second.
func (i *Iface) Rate() int64 { return i.rate }

// Peer returns the other side's interface, nil for external ports.
func (i *Iface) Peer() *Iface { return i.peer }

// backlogBytes returns the queue occupancy implied by busyUntil, at the
// rate the queue is actually drained (the effective rate under background
// reservation).
func (i *Iface) backlogBytes(now sim.Time) int {
	if i.busyUntil <= now || i.rate <= 0 {
		return 0
	}
	bits := float64(i.busyUntil-now) * float64(i.effRate()) / float64(sim.Second)
	return int(bits / 8)
}

// bgMinShareDiv floors the effective foreground rate at rate/bgMinShareDiv:
// however loaded the background tier is, packet-level traffic keeps at
// least 1/16 of the link (matching the bgMaxRho delay clamp below), so
// foreground flows degrade instead of starving.
const bgMinShareDiv = 16

// bgMaxRho caps the background utilization used in the queueing-delay
// model at 15/16, where the M/M/1-style ρ/(1−ρ) term reaches 15 MTU
// serialization times — beyond that the fluid model's "steady backlog"
// assumption is doing all the work anyway.
const bgMaxRho = float64(bgMinShareDiv-1) / float64(bgMinShareDiv)

// effRate is the serialization rate the packet tier sees: the configured
// rate minus the background reservation, floored at rate/bgMinShareDiv.
func (i *Iface) effRate() int64 {
	if i.bgRate <= 0 || i.rate <= 0 {
		return i.rate
	}
	eff := i.rate - i.bgRate
	if min := i.rate / bgMinShareDiv; eff < min {
		eff = min
	}
	return eff
}

// Reserve sets the bandwidth the flow-level background tier currently
// consumes on this interface. Packet-tier transmissions serialize at the
// residual rate and see an extra queueing delay modeling the background
// backlog (ρ/(1−ρ) MTU times, ρ capped at bgMaxRho). Reserve is called
// only at background rate-recompute events; between two such events the
// packet tier's timing is a pure function of its own traffic, which is
// what keeps foreground runs deterministic and placement-bit-identical.
func (i *Iface) Reserve(rate int64) {
	if rate < 0 {
		rate = 0
	}
	i.bgRate = rate
	i.bgDelay = 0
	if rate > 0 && i.rate > 0 {
		rho := float64(rate) / float64(i.rate)
		if rho > bgMaxRho {
			rho = bgMaxRho
		}
		mtuT := float64(sim.TransmitTime(1500, i.rate))
		i.bgDelay = sim.Time(mtuT * rho / (1 - rho))
	}
}

// Enqueue places f on the output queue. It returns the departure time
// (when the last bit leaves the interface) or -1 when the packet is
// dropped. Marking and dropping happen here, at enqueue, on the
// instantaneous backlog. Enqueue owns the frame: dropped frames are
// released, accepted frames travel on to the peer (or external port).
func (i *Iface) Enqueue(f *proto.Frame) sim.Time {
	depart := i.admit(f)
	if depart >= 0 {
		i.send(f, depart)
	}
	return depart
}

// admit is Enqueue's queueing half: it drops (and releases) or marks f and
// books its serialization, returning the departure time or -1.
func (i *Iface) admit(f *proto.Frame) sim.Time {
	now := i.net.env.Now()
	backlog := i.backlogBytes(now)
	size := f.WireLen()
	if i.QueueCapBytes > 0 && backlog+size > i.QueueCapBytes {
		i.Drops++
		f.Release()
		return -1
	}
	if i.MarkThresholdBytes > 0 && backlog > i.MarkThresholdBytes &&
		(f.IP.ECN() == proto.ECNECT0 || f.IP.ECN() == proto.ECNECT1) {
		f.IP = f.IP.WithECN(proto.ECNCE)
		i.Marks++
	}
	start := now + i.bgDelay
	if i.busyUntil > start {
		start = i.busyUntil
	}
	depart := start + sim.TransmitTime(size, i.effRate())
	i.busyUntil = depart
	i.TxPackets++
	i.TxBytes += uint64(size)
	return depart
}

// send is Enqueue's forwarding half: an admitted frame that departs at
// depart goes on toward the peer. An external port takes it now, held to
// its departure, so a boundary costs no departure event.
func (i *Iface) send(f *proto.Frame, depart sim.Time) {
	env := i.net.env
	switch {
	case i.ext != nil:
		i.ext.send(f, depart-env.Now())
	case i.cut != nil:
		env.PostDelivery(depart+i.delay+i.net.SwitchLatency, &i.cut.cutSink, f)
	default:
		env.PostDelivery(depart+i.delay, &i.peer.rxSink, f)
	}
}

// setCut points i at its peer's switch when that switch has no Dataplane.
func (i *Iface) setCut() {
	i.cut = nil
	if i.peer == nil {
		return
	}
	if sw, ok := i.peer.owner.(*Switch); ok && sw.Dataplane == nil {
		i.cut = sw
	}
}
