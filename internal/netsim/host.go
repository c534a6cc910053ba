package netsim

import (
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// UDPHandler aliases the shared socket-callback type.
type UDPHandler = core.UDPHandler

// App is a protocol-level application bound to a host. Protocol-level apps
// run with zero host processing cost — exactly the ns-3 modeling gap the
// paper's case studies expose.
type App interface {
	Start(h *Host)
}

// AppFunc adapts a function to App.
type AppFunc func(h *Host)

// Start implements App.
func (f AppFunc) Start(h *Host) { f(h) }

// Host is a protocol-level end host: an IP/UDP/TCP stack and an application,
// with no CPU, OS, or NIC model.
type Host struct {
	net   *Network
	name  string
	ip    proto.IP
	mac   proto.MAC
	iface *Iface
	app   App
	rng   *sim.Rand

	tcpstack.Sockets // UDP bindings, TCP connections and their demux

	// Statistics.
	RxPackets, TxPackets uint64
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

func (h *Host) nodeName() string { return h.name }

// IP returns the host address.
func (h *Host) IP() proto.IP { return h.ip }

// LocalIP returns the host address (alias used by the shared app API).
func (h *Host) LocalIP() proto.IP { return h.ip }

// MAC returns the host's Ethernet address.
func (h *Host) MAC() proto.MAC { return h.mac }

// Iface returns the host's link interface.
func (h *Host) Iface() *Iface { return h.iface }

// Rand returns the host's private deterministic random source.
func (h *Host) Rand() *sim.Rand { return h.rng }

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.net.env.Now() }

// End returns the simulation end time.
func (h *Host) End() sim.Time { return h.net.end }

// After schedules fn d from now.
func (h *Host) After(d sim.Time, fn func()) { h.net.env.After(d, fn) }

// SetApp installs the host application; it starts when the network starts.
func (h *Host) SetApp(a App) { h.app = a }

// Compute models application CPU time. A protocol-level host has no CPU:
// the ns-3 idiom is Simulator::Schedule(delay, respond), i.e. processing
// becomes a pure delay with unbounded concurrency — latency is modeled,
// capacity is not. That missing queueing/serialization is exactly the
// modeling gap the paper's in-network case study exposes.
func (h *Host) Compute(d sim.Time, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	h.After(d, fn)
}

// SendUDP transmits a datagram. payload carries the semantic bytes; virtual
// adds synthetic payload size. The frame comes from the network's pool and
// takes a pooled copy of payload, so handlers may echo their received
// payload slice even though the frame backing it is recycled when the
// handler returns.
func (h *Host) SendUDP(dst proto.IP, srcPort, dstPort uint16, payload []byte, virtual int) {
	f := h.net.pool.Get()
	f.Eth = proto.Ethernet{Dst: proto.MACFromID(uint32(dst)), Src: h.mac}
	f.IP = proto.IPv4{Src: h.ip, Dst: dst, Proto: proto.IPProtoUDP}
	f.UDP = proto.UDP{SrcPort: srcPort, DstPort: dstPort}
	f.CopyPayload(payload)
	f.VirtualPayload = virtual
	f.Seal()
	h.transmit(f)
}

// NewFrame implements tcpstack.Transport: segments the TCP stack builds on
// this host come from the network's frame pool.
func (h *Host) NewFrame() *proto.Frame { return h.net.pool.Get() }

// transmit pushes a sealed frame onto the host link, transferring ownership.
func (h *Host) transmit(f *proto.Frame) {
	if h.iface == nil {
		panic("netsim: host " + h.name + " not connected")
	}
	h.TxPackets++
	h.iface.Enqueue(f)
}

// receive implements node. The host is a terminal sink: after the handler
// or TCP input returns — neither retains the frame or its payload — the
// frame goes back to its pool.
func (h *Host) receive(_ *Iface, f *proto.Frame) {
	h.RxPackets++
	if f.IP.Dst != h.ip {
		f.Release() // mis-delivered; drop silently like a real NIC without promisc
		return
	}
	h.Deliver(f)
	f.Release()
}
