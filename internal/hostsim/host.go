package hostsim

import (
	"repro/internal/core"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// App is an application process running on a detailed host.
type App interface {
	Start(h *Host)
}

// AppFunc adapts a function to App.
type AppFunc func(h *Host)

// Start implements App.
func (f AppFunc) Start(h *Host) { f(h) }

// Host is a detailed full-system host simulator instance; it implements
// core.Component and tcpstack.Transport.
type Host struct {
	name string
	env  core.Env
	cost core.CostAccount
	p    Params
	ip   proto.IP
	mac  proto.MAC
	rng  *sim.Rand

	// Clock is the guest system clock (oscillator + chrony corrections).
	Clock DisciplinedClock

	nicPort core.Port // PCI channel toward the NIC

	// busyUntil is the simulated core's booking horizon; cpuBusy is its
	// accumulated busy time, for utilization stats.
	busyUntil sim.Time
	cpuBusy   sim.Time

	// lane is the delivery lane for stack completions, built by Attach on
	// the run's scheduler. The core's bookings never go back in time, so the
	// completions parked on it keep the heap one entry deep however far
	// ahead the backlog reaches.
	lane *sim.Lane

	txID       uint64
	txWaiters  map[uint64]func(hw sim.Time)
	phcID      uint64
	phcWaiters map[uint64]func(hw sim.Time)

	tcpstack.Sockets // UDP bindings, TCP connections and their demux
	apps             []App

	// lastHW and lastSW hold the hardware and software (driver-entry)
	// timestamps of the packet the socket layer is delivering, set before
	// any UDP handler runs.
	lastHW sim.Time
	lastSW sim.Time

	// pool recycles parsed frames and encode buffers for this host's stack.
	pool proto.FramePool

	// freeTxJob/freeRxJob recycle the stack-traversal descriptors parked in
	// the scheduler while simulated CPU time elapses.
	freeTxJob []*txJob
	freeRxJob []*rxJob

	// txSink and rxSink are the typed-delivery sinks for stack-compute
	// completion events — one lane entry per in-flight packet, no closures.
	txSink hostTxSink
	rxSink hostRxSink

	// Statistics.
	RxPackets, TxPackets uint64
}

// txJob is a frame traversing the transmit stack: already encoded, waiting
// for its simulated CPU time to elapse before the PCI doorbell.
type txJob struct {
	h     *Host
	bytes []byte
	stamp bool
	onTx  func(sim.Time)
}

// Release implements core.Releaser for end-of-run scheduler sweeps.
func (j *txJob) Release() {
	if j.bytes != nil {
		j.h.pool.PutBuf(j.bytes)
		j.bytes = nil
	}
	j.onTx = nil
}

// rxJob is a parsed frame traversing the receive stack (IRQ + driver +
// stack cost) on its way to the socket layer.
type rxJob struct {
	h      *Host
	f      *proto.Frame
	hw, sw sim.Time
}

// Release implements core.Releaser for end-of-run scheduler sweeps.
func (j *rxJob) Release() {
	if j.f != nil {
		j.f.Release()
		j.f = nil
	}
}

// hostTxSink fires when the transmit stack's CPU time has elapsed: the
// doorbell rings and the descriptor crosses the PCI channel.
type hostTxSink struct{ h *Host }

// Deliver implements core.Sink.
func (k *hostTxSink) Deliver(_ sim.Time, m core.Message) {
	h := k.h
	j := m.(*txJob)
	if h.nicPort == nil {
		panic("hostsim: " + h.name + " has no NIC bound")
	}
	h.txID++
	id := h.txID
	if j.stamp && j.onTx != nil {
		h.txWaiters[id] = j.onTx
	}
	b := pci.GetTxBatch()
	b.Subs = append(b.Subs, pci.TxSubmit{ID: id, Frame: j.bytes, Timestamp: j.stamp})
	h.nicPort.Send(b, 0)
	j.bytes, j.onTx = nil, nil
	h.freeTxJob = append(h.freeTxJob, j)
}

// hostRxSink fires when the receive stack's CPU time has elapsed: the
// packet reaches the socket layer and the frame returns to the pool.
type hostRxSink struct{ h *Host }

// Deliver implements core.Sink.
func (k *hostRxSink) Deliver(_ sim.Time, m core.Message) {
	h := k.h
	j := m.(*rxJob)
	h.lastHW, h.lastSW = j.hw, j.sw
	h.Deliver(j.f)
	j.f.Release()
	j.f = nil
	h.freeRxJob = append(h.freeRxJob, j)
}

// New creates a detailed host. seed derives all of the host's randomness
// (timing noise); the oscillator is configured separately via Clock.Osc.
func New(name string, ip proto.IP, p Params, seed uint64) *Host {
	h := &Host{
		name: name, ip: ip, mac: proto.MACFromID(uint32(ip)), p: p,
		rng:        sim.NewRand(seed ^ uint64(ip)*0x9e3779b97f4a7c15),
		txWaiters:  make(map[uint64]func(sim.Time)),
		phcWaiters: make(map[uint64]func(sim.Time)),
	}
	h.txSink.h = h
	h.rxSink.h = h
	return h
}

// Name implements core.Component.
func (h *Host) Name() string { return h.name }

// Attach implements core.Component.
func (h *Host) Attach(env core.Env) {
	h.env = env
	h.lane = env.Sched.NewLane(env.Src)
}

// Start implements core.Component.
func (h *Host) Start(sim.Time) {
	for _, a := range h.apps {
		a.Start(h)
	}
}

// Cost implements core.Coster.
func (h *Host) Cost() *core.CostAccount { return &h.cost }

// TimeTaxNsPerVirtualUs reports the fidelity tier's background simulation
// cost for the makespan model.
func (h *Host) TimeTaxNsPerVirtualUs() float64 { return h.p.SimTimeTaxNsPerUs }

// AddApp registers an application started with the simulation.
func (h *Host) AddApp(a App) { h.apps = append(h.apps, a) }

// BindNIC sets the outgoing PCI port toward the host's NIC.
func (h *Host) BindNIC(p core.Port) { h.nicPort = p }

// NICSink returns the sink receiving PCI messages from the NIC.
func (h *Host) NICSink() core.Sink { return core.SinkFunc(h.fromNIC) }

// --- app/system API -------------------------------------------------------

// Now returns true virtual time (the simulator's global clock).
func (h *Host) Now() sim.Time { return h.env.Now() }

// ClockNow returns the guest system clock — what gettimeofday would report,
// including oscillator error and chrony corrections.
func (h *Host) ClockNow() sim.Time { return h.Clock.Read(h.env.Now()) }

// After schedules fn after d of true time (timer wheel; consumes no CPU).
func (h *Host) After(d sim.Time, fn func()) { h.env.After(d, fn) }

// Rand returns the host's deterministic random source.
func (h *Host) Rand() *sim.Rand { return h.rng }

// LocalIP returns the host address.
func (h *Host) LocalIP() proto.IP { return h.ip }

// LocalMAC returns the host Ethernet address.
func (h *Host) LocalMAC() proto.MAC { return h.mac }

// jitter applies the fidelity tier's multiplicative timing noise.
func (h *Host) jitter(d sim.Time) sim.Time {
	if h.p.CostNoiseFrac == 0 || d == 0 {
		return d
	}
	f := 1 + h.p.CostNoiseFrac*(2*h.rng.Float64()-1)
	return sim.Time(float64(d) * f)
}

// computeDone books d of work on the simulated core and returns its
// completion time, serialized behind previously queued work. This is the
// mechanism that makes servers saturate and adds the latency the
// protocol-level simulator cannot see.
func (h *Host) computeDone(d sim.Time) sim.Time {
	d = h.jitter(d)
	start := h.env.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	h.busyUntil = start + d
	h.cpuBusy += d
	h.cost.Charge(h.p.SimCostPerEventNs)
	return h.busyUntil
}

// Compute runs fn after the simulated core has spent d executing this work.
func (h *Host) Compute(d sim.Time, fn func()) {
	h.env.At(h.computeDone(d), fn)
}

// SendUDP transmits a datagram: the send syscall and stack consume CPU,
// then the frame is submitted to the NIC over PCI. The payload is encoded
// synchronously, so the caller's slice is free for reuse on return.
func (h *Host) SendUDP(dst proto.IP, srcPort, dstPort uint16, payload []byte, virtual int) {
	f := h.pool.Get()
	f.Eth = proto.Ethernet{Dst: proto.MACFromID(uint32(dst)), Src: h.mac}
	f.IP = proto.IPv4{Src: h.ip, Dst: dst, Proto: proto.IPProtoUDP}
	f.UDP = proto.UDP{SrcPort: srcPort, DstPort: dstPort}
	f.Payload = payload
	f.VirtualPayload = virtual
	f.Seal()
	h.sendFrame(f, false, nil)
}

// SendUDPTimestamped is SendUDP with hardware TX timestamping requested;
// onTx receives the NIC hardware clock value at wire departure (the
// SO_TIMESTAMPING path ptp4l uses).
func (h *Host) SendUDPTimestamped(dst proto.IP, srcPort, dstPort uint16,
	payload []byte, onTx func(hw sim.Time)) {
	f := h.pool.Get()
	f.Eth = proto.Ethernet{Dst: proto.MACFromID(uint32(dst)), Src: h.mac}
	f.IP = proto.IPv4{Src: h.ip, Dst: dst, Proto: proto.IPProtoUDP}
	f.UDP = proto.UDP{SrcPort: srcPort, DstPort: dstPort}
	f.Payload = payload
	f.Seal()
	h.sendFrame(f, true, onTx)
}

// Output implements tcpstack.Transport: the TCP transmit path consumes CPU
// like any other send.
func (h *Host) Output(f *proto.Frame) { h.sendFrame(f, false, nil) }

// NewFrame implements tcpstack.Transport: segments come from the host's
// frame pool.
func (h *Host) NewFrame() *proto.Frame { return h.pool.Get() }

// PostRTO implements tcpstack.Transport. Detailed hosts are not checkpoint
// targets, so a plain closure firing suffices here.
func (h *Host) PostRTO(c *tcpstack.Conn, d sim.Time) { h.env.After(d, c.RTOFire) }

// FrameStats implements core.FramePooler.
func (h *Host) FrameStats() proto.PoolStats { return h.pool.Stats() }

// sendFrame encodes f into a pooled buffer and releases it, then parks a
// transmit descriptor in the scheduler until the stack's CPU time elapses.
// Encoding happens before the frame's backing storage can be recycled, so
// payloads may alias a received frame's buffer.
func (h *Host) sendFrame(f *proto.Frame, stamp bool, onTx func(sim.Time)) {
	h.TxPackets++
	var j *txJob
	if k := len(h.freeTxJob); k > 0 {
		j = h.freeTxJob[k-1]
		h.freeTxJob = h.freeTxJob[:k-1]
	} else {
		j = &txJob{h: h}
	}
	j.bytes = proto.AppendFrame(h.pool.GetBuf(), f)
	j.stamp, j.onTx = stamp, onTx
	f.Release()
	h.lane.Post(h.computeDone(h.p.TxStackCost), &h.txSink, j)
}

// ReadPHC issues a PTP-hardware-clock read; fn receives the PHC value and
// runs when the PCIe round trip completes.
func (h *Host) ReadPHC(fn func(hw sim.Time)) {
	h.phcID++
	id := h.phcID
	h.phcWaiters[id] = fn
	h.nicPort.Send(pci.PHCRead{ID: id}, 0)
}

// DialTCP creates the sending side of a TCP flow toward a remote endpoint.
// The conn is registered for demux; start it with StartFlow.
func (h *Host) DialTCP(remote proto.IP, lport, rport uint16, algo tcpstack.CCAlgo,
	bytes int64, onDone func()) *tcpstack.Conn {
	c := tcpstack.NewSender(h, remote, proto.MACFromID(uint32(remote)), lport, rport, algo, bytes, onDone)
	h.Add(c)
	return c
}

// ListenTCP creates the receiving side of a TCP flow.
func (h *Host) ListenTCP(remote proto.IP, lport, rport uint16, algo tcpstack.CCAlgo) *tcpstack.Conn {
	c := tcpstack.NewReceiver(h, remote, proto.MACFromID(uint32(remote)), lport, rport, algo)
	h.Add(c)
	return c
}

// --- PCI receive path ------------------------------------------------------

func (h *Host) fromNIC(at sim.Time, m core.Message) {
	switch msg := m.(type) {
	case *pci.RxBatch:
		for i := range msg.Pkts {
			h.receiveFrame(msg.Pkts[i])
		}
		pci.PutRxBatch(msg)
	case *pci.TxDone:
		if fn, ok := h.txWaiters[msg.ID]; ok {
			delete(h.txWaiters, msg.ID)
			fn(msg.HWTime)
		}
		pci.PutTxDone(msg)
	case pci.PHCValue:
		if fn, ok := h.phcWaiters[msg.ID]; ok {
			delete(h.phcWaiters, msg.ID)
			fn(msg.HWTime)
		}
	default:
		panic("hostsim: unexpected NIC message")
	}
}

// receiveFrame models interrupt + driver + stack costs, then demuxes to the
// socket layer. The DMA'd bytes are adopted by a pooled frame.
func (h *Host) receiveFrame(msg pci.RxPacket) {
	h.RxPackets++
	f := h.pool.Get()
	if err := proto.ParseFrameInto(f, msg.Frame); err != nil {
		f.Release() // corrupt frame: dropped by the driver
		return
	}
	if f.Eth.EtherType != proto.EtherTypeIPv4 || f.IP.Dst != h.ip {
		f.Release()
		return
	}
	var j *rxJob
	if k := len(h.freeRxJob); k > 0 {
		j = h.freeRxJob[k-1]
		h.freeRxJob = h.freeRxJob[:k-1]
	} else {
		j = &rxJob{h: h}
	}
	// SO_TIMESTAMP software receive timestamp: taken when the driver sees
	// the packet, before it waits behind other work on the CPU.
	j.f, j.hw, j.sw = f, msg.HWTime, h.ClockNow()
	h.lane.Post(h.computeDone(h.p.IRQOverhead+h.p.RxStackCost), &h.rxSink, j)
}

// LastRxHWTime returns the NIC hardware timestamp of the datagram currently
// being handled (valid only inside a UDPHandler) — the SO_TIMESTAMPING
// receive path.
func (h *Host) LastRxHWTime() sim.Time { return h.lastHW }

// LastRxSWTime returns the software (driver-entry) system-clock timestamp
// of the datagram currently being handled — SO_TIMESTAMP semantics, which
// exclude time the packet spent queued behind other work on the CPU.
func (h *Host) LastRxSWTime() sim.Time { return h.lastSW }
