package netsim

import (
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// Re-exported congestion-control selectors and constants so callers of the
// protocol-level simulator need not import tcpstack directly.
const (
	CCReno  = tcpstack.CCReno
	CCDCTCP = tcpstack.CCDCTCP
	MSS     = tcpstack.MSS
)

// CCAlgo re-exports tcpstack.CCAlgo.
type CCAlgo = tcpstack.CCAlgo

// TCPConn re-exports tcpstack.Conn.
type TCPConn = tcpstack.Conn

// Output implements tcpstack.Transport on protocol-level hosts: frames go
// straight to the link with zero host processing cost beyond the simulator's
// per-packet accounting — the ns-3 modeling gap the paper measures.
func (h *Host) Output(f *proto.Frame) { h.transmit(f) }

// PostRTO implements tcpstack.Transport: the firing is a named event
// carrying (host, connection key), so pending retransmission timers
// serialize into checkpoints instead of hiding in bound closures.
func (h *Host) PostRTO(c *TCPConn, d sim.Time) {
	env := h.net.env
	env.PostNamed(env.Now()+d, h.net.namedHandle(h.net.tcpRtoH), sim.NamedArgs{
		uint64(h.ip),
		uint64(c.Remote()),
		uint64(c.RemotePort())<<16 | uint64(c.LocalPort()),
	})
}

// tcpRTOFire dispatches a posted RTO named event back to its connection.
// Arguments naming a host or connection this network does not hold (an
// event decoded from another build's checkpoint) make the firing a no-op.
func (n *Network) tcpRTOFire(args sim.NamedArgs) {
	h, ok := n.hostByIP[proto.IP(args[0])]
	if !ok {
		return
	}
	if c := h.Lookup(proto.IP(args[1]), uint16(args[2]>>16), uint16(args[2])); c != nil {
		c.RTOFire()
	}
}

// LocalMAC implements tcpstack.Transport.
func (h *Host) LocalMAC() proto.MAC { return h.mac }

// NewFlow creates a pre-established bulk flow from src to dst. bytes is the
// transfer size (0 = run until simulation end). onDone, if non-nil, fires on
// the sender when the last byte is acknowledged. The returned conns are
// (sender, receiver); data flows once the sender's StartFlow runs.
func NewFlow(src, dst *Host, sport, dport uint16, algo CCAlgo, bytes int64, onDone func()) (*TCPConn, *TCPConn) {
	snd := tcpstack.NewSender(src, dst.ip, dst.mac, sport, dport, algo, bytes, onDone)
	rcv := tcpstack.NewReceiver(dst, src.ip, src.mac, dport, sport, algo)
	src.Add(snd)
	dst.Add(rcv)
	return snd, rcv
}
