// Package nicsim is the behavioral NIC model — the analog of the SimBricks
// i40e_bm simulator for the Intel X710. It models descriptor-ring DMA
// latency, wire serialization at the configured link rate, interrupt
// latency, hardware RX/TX timestamping, and a PTP hardware clock (PHC)
// driven by its own imperfect oscillator.
//
// A NIC is one SplitSim component with two channel attachments: the PCI
// side toward its host simulator and the Ethernet side toward the network.
package nicsim

import (
	"repro/internal/core"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Params configures the behavioral model.
type Params struct {
	// Rate is the wire rate in bits per second.
	Rate int64
	// TxDMA is the latency from doorbell to the frame being ready to
	// serialize (descriptor fetch + payload DMA read).
	TxDMA sim.Time
	// RxDMA is the latency from last bit on the wire to the frame being
	// visible in host memory (DMA write + completion).
	RxDMA sim.Time
	// PHCDriftPPM is the frequency error of the NIC oscillator backing the
	// PTP hardware clock.
	PHCDriftPPM float64
	// PHCReadLatency models the PCIe register-read round trip handling
	// inside the NIC (the channel adds its own latency both ways).
	PHCReadLatency sim.Time
	// PHCQuantum is the hardware clock's timestamp granularity; reads and
	// hardware timestamps are quantized to it (the X710 stamps at ~8 ns).
	PHCQuantum sim.Time
	// IRQModeration batches received frames: an interrupt fires (and the
	// batch is DMA'd up) at most once per this interval, like the i40e
	// rx-usecs setting. Zero delivers per frame after RxDMA.
	IRQModeration sim.Time
}

// DefaultParams returns an i40e-like 10G configuration.
func DefaultParams() Params {
	return Params{
		Rate:           10 * sim.Gbps,
		TxDMA:          900 * sim.Nanosecond,
		RxDMA:          900 * sim.Nanosecond,
		PHCDriftPPM:    0,
		PHCReadLatency: 300 * sim.Nanosecond,
		PHCQuantum:     8 * sim.Nanosecond,
	}
}

// NIC is the behavioral NIC component.
type NIC struct {
	name string
	env  core.Env
	cost core.CostAccount
	p    Params

	hostPort core.Port // toward the host (PCI channel)
	netPort  core.Port // toward the network (Ethernet channel)

	txBusyUntil sim.Time

	// curBatch is the interrupt-moderation batch currently accumulating;
	// its flush event is already scheduled. nil when no batch is open.
	curBatch *pci.RxBatch

	// freeTx recycles the transmit descriptors of timestamped frames,
	// parked in the scheduler between doorbell and wire departure.
	freeTx []*txPend

	// txSink and rxSink are the typed-delivery sinks for timestamped wire
	// departures and DMA-complete events — one queue slot per event, no
	// closures.
	txSink nicTxSink
	rxSink nicRxSink

	// PHC state: hardware clock = offset + trueTime*(1+drift) plus a
	// frequency correction that only applies from phcBase forward (a servo
	// retune must not retroactively shift past timestamps).
	phcOffset  sim.Time
	phcFreqAdj float64  // ppm, applied by ptp4l's servo
	phcBase    sim.Time // true time the current frequency correction started

	// Statistics.
	TxFrames, RxFrames uint64
}

// Simulation-cost model (see EXPERIMENTS.md): the behavioral NIC simulator
// is cheap per packet and nearly free when idle.
const (
	// CostPerPacketNs is charged per TX or RX frame.
	CostPerPacketNs = 600
	// TimeTaxNsPerUs is the background simulation cost per virtual
	// microsecond (polling loops, sync).
	TimeTaxNsPerUs = 2.0
)

// New creates a NIC.
func New(name string, p Params) *NIC {
	n := &NIC{name: name, p: p}
	n.txSink.n = n
	n.rxSink.n = n
	return n
}

// txPend is a timestamped frame between doorbell and wire departure,
// parked in the scheduler as a typed delivery payload.
type txPend struct {
	frame []byte
	id    uint64
}

// nicTxSink handles a timestamped frame's wire-departure event: the frame
// goes out the Ethernet port and the completion, stamped with the PHC at
// departure, goes back over PCI.
type nicTxSink struct{ n *NIC }

// Deliver implements core.Sink.
func (k *nicTxSink) Deliver(at sim.Time, m core.Message) {
	n := k.n
	p := m.(*txPend)
	n.netPort.Send(proto.GetWireFrame(p.frame), 0)
	d := pci.GetTxDone()
	d.ID = p.id
	d.HWTime = n.PHC(at)
	n.hostPort.Send(d, 0)
	p.frame = nil
	n.freeTx = append(n.freeTx, p)
}

// nicRxSink handles DMA-complete events: the accumulated batch crosses the
// PCI channel in one message.
type nicRxSink struct{ n *NIC }

// Deliver implements core.Sink.
func (k *nicRxSink) Deliver(_ sim.Time, m core.Message) {
	n := k.n
	b := m.(*pci.RxBatch)
	if b == n.curBatch {
		n.curBatch = nil
	}
	n.hostPort.Send(b, 0)
}

// Name implements core.Component.
func (n *NIC) Name() string { return n.name }

// Attach implements core.Component.
func (n *NIC) Attach(env core.Env) { n.env = env }

// Start implements core.Component.
func (n *NIC) Start(end sim.Time) {}

// Cost implements core.Coster.
func (n *NIC) Cost() *core.CostAccount { return &n.cost }

// TimeTaxNsPerVirtualUs implements core timing-tax reporting for the
// makespan model.
func (n *NIC) TimeTaxNsPerVirtualUs() float64 { return TimeTaxNsPerUs }

// BindHost sets the PCI-side outgoing port.
func (n *NIC) BindHost(p core.Port) { n.hostPort = p }

// BindNet sets the Ethernet-side outgoing port.
func (n *NIC) BindNet(p core.Port) { n.netPort = p }

// PHC returns the hardware clock reading at true time t, quantized to the
// clock's timestamp granularity.
func (n *NIC) PHC(t sim.Time) sim.Time {
	v := n.phcOffset + t +
		sim.Time(n.p.PHCDriftPPM*float64(t)/1e6) +
		sim.Time(n.phcFreqAdj*float64(t-n.phcBase)/1e6)
	if q := n.p.PHCQuantum; q > 1 {
		v -= v % q
	}
	return v
}

// SetPHCOffset steps the hardware clock (ptp4l's clock_adjtime analog).
func (n *NIC) SetPHCOffset(delta sim.Time) { n.phcOffset += delta }

// AdjPHCFreq accumulates a frequency correction in ppm (ptp4l's servo),
// folding the old correction's accumulated phase into the offset so the
// change applies only from now on.
func (n *NIC) AdjPHCFreq(deltaPPM float64) {
	now := n.env.Now()
	n.phcOffset += sim.Time(n.phcFreqAdj * float64(now-n.phcBase) / 1e6)
	n.phcBase = now
	n.phcFreqAdj += deltaPPM
}

// HostSink returns the sink for messages arriving from the host over PCI.
func (n *NIC) HostSink() core.Sink { return core.SinkFunc(n.fromHost) }

// NetSink returns the sink for frames arriving from the network.
func (n *NIC) NetSink() core.Sink { return core.SinkFunc(n.fromNet) }

// fromHost handles PCI messages from the host.
func (n *NIC) fromHost(at sim.Time, m core.Message) {
	switch msg := m.(type) {
	case *pci.TxBatch:
		for i := range msg.Subs {
			n.cost.Charge(CostPerPacketNs)
			n.transmit(msg.Subs[i])
		}
		pci.PutTxBatch(msg)
	case pci.PHCRead:
		n.env.After(n.p.PHCReadLatency, func() {
			n.hostPort.Send(pci.PHCValue{ID: msg.ID, HWTime: n.PHC(n.env.Now())}, 0)
		})
	default:
		panic("nicsim: unexpected host message")
	}
}

// transmit models DMA fetch then wire serialization, then emits the frame
// toward the network and a TxDone (with hardware timestamp if requested)
// toward the host, both leaving at the frame's departure.
func (n *NIC) transmit(msg pci.TxSubmit) {
	ready := n.env.Now() + n.p.TxDMA
	start := ready
	if n.txBusyUntil > start {
		start = n.txBusyUntil
	}
	depart := start + sim.TransmitTime(proto.RawWireLen(msg.Frame), n.p.Rate)
	n.txBusyUntil = depart
	n.TxFrames++
	if !msg.Timestamp {
		// Nothing about an unstamped frame can change before it leaves, so
		// the frame and its completion go now, held to the departure.
		hold := depart - n.env.Now()
		n.netPort.Send(proto.GetWireFrame(msg.Frame), hold)
		d := pci.GetTxDone()
		d.ID = msg.ID
		n.hostPort.Send(d, hold)
		return
	}
	// A stamped frame keeps its departure event: the timestamp is the PHC
	// reading at departure, and AdjPHCFreq may retune the PHC before then.
	var p *txPend
	if k := len(n.freeTx); k > 0 {
		p = n.freeTx[k-1]
		n.freeTx = n.freeTx[:k-1]
	} else {
		p = &txPend{}
	}
	p.frame, p.id = msg.Frame, msg.ID
	n.env.PostDelivery(depart, &n.txSink, p)
}

// fromNet handles frames arriving on the wire: timestamp at arrival, DMA to
// host memory, deliver an RxBatch.
//
// Without moderation every frame ships in its own single-entry batch: two
// frames can arrive in distinct same-instant events with an unrelated NIC
// event (say a TxDone) ordered between their DMA completions, so coalescing
// them would reorder the PCI stream. With moderation the old code emitted
// the whole batch as consecutive sends from one flush event — nothing could
// interleave — so a single multi-frame message is exactly order-preserving.
func (n *NIC) fromNet(at sim.Time, m core.Message) {
	n.cost.Charge(CostPerPacketNs)
	n.RxFrames++
	w, ok := m.(*proto.WireFrame)
	if !ok {
		panic("nicsim: expected an encoded frame on the wire")
	}
	frame := w.B
	proto.PutWireFrame(w)
	pkt := pci.RxPacket{Frame: frame, HWTime: n.PHC(at)}
	if n.p.IRQModeration <= 0 {
		b := pci.GetRxBatch()
		b.Pkts = append(b.Pkts, pkt)
		n.env.PostDelivery(at+n.p.RxDMA, &n.rxSink, b)
		return
	}
	if n.curBatch == nil {
		n.curBatch = pci.GetRxBatch()
		n.env.PostDelivery(at+n.p.IRQModeration+n.p.RxDMA, &n.rxSink, n.curBatch)
	}
	n.curBatch.Pkts = append(n.curBatch.Pkts, pkt)
}
