// Package tcpstack implements the TCP sender/receiver used throughout
// SplitSim-Go: NewReno-style loss-based congestion control and DCTCP with
// per-packet ECN echo. The stack is transport-agnostic — protocol-level
// hosts (package netsim) execute it with zero host cost, while detailed
// hosts (package hostsim) execute the very same protocol logic with CPU,
// interrupt, and NIC delays layered around it. That mirrors reality: a gem5
// host and an ns-3 node run the same TCP algorithm in different timing
// environments, which is exactly the fidelity difference the paper's
// congestion-control case study measures.
package tcpstack

import (
	"math"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Transport is the environment a Conn runs in.
type Transport interface {
	// Now returns the current virtual time as seen by this endpoint.
	Now() sim.Time
	// PostRTO schedules c.RTOFire() after d with no cancellation handle; the
	// stack's timer logic tolerates stale firings. It takes the connection
	// rather than a bound closure so transports can record the pending firing
	// as an explicit, serializable event — a checkpoint names the connection,
	// not a func pointer.
	PostRTO(c *Conn, d sim.Time)
	// NewFrame returns a zeroed frame for an outgoing segment, pooled when
	// the transport pools (ownership transfers back via Output).
	NewFrame() *proto.Frame
	// Output transmits a sealed frame toward the remote endpoint.
	Output(f *proto.Frame)
	// LocalIP returns the endpoint address.
	LocalIP() proto.IP
	// LocalMAC returns the endpoint Ethernet address.
	LocalMAC() proto.MAC
}

// CCAlgo selects a congestion-control algorithm.
type CCAlgo int

const (
	// CCReno is NewReno-style loss-based congestion control.
	CCReno CCAlgo = iota
	// CCDCTCP is DCTCP: ECT-marked segments, per-packet ECN echo, and
	// window reduction proportional to the measured marking fraction.
	CCDCTCP
)

// Model constants.
const (
	// MSS is the maximum segment payload in bytes.
	MSS = 1448
	// initialWindow is IW10.
	initialWindow = 10 * MSS
	// dctcpG is DCTCP's alpha EWMA gain (1/16, per the DCTCP paper).
	dctcpG = 1.0 / 16
	// minRTO bounds the retransmission timeout from below.
	minRTO = 1 * sim.Millisecond
)

// Conn is one side of a simplified unidirectional TCP connection: the
// sender streams data, the receiver returns ACKs with per-segment ECN echo.
// Connections are created pre-established; there is no handshake or
// teardown, matching how the evaluation uses long-lived flows. Loss
// recovery is go-back-N with fast retransmit on three duplicate ACKs and a
// retransmission timeout.
type Conn struct {
	tr     Transport
	remote proto.IP
	rmac   proto.MAC
	lport  uint16
	rport  uint16
	sender bool
	algo   CCAlgo

	// Sender state; sequence numbers are int64 byte offsets internally and
	// truncated to 32 bits on the wire.
	sndUna, sndNxt int64
	total          int64
	cwnd           float64
	ssthresh       float64
	dupAcks        int
	rtoBackoff     int
	srtt, rttvar   sim.Time

	// Lazily re-armed retransmission timer: rtoDeadline is the earliest
	// instant a timeout may act (0 when disarmed), rtoPending whether a
	// posted firing is outstanding. Re-arming updates the deadline; a
	// firing that arrives before it re-posts instead of timing out, so an
	// ACK never has to retract a queued event. The firing itself travels
	// through Transport.PostRTO so it stays a serializable record.
	rtoDeadline sim.Time
	rtoPending  bool

	measureSeq   int64
	measureAt    sim.Time
	measureValid bool

	// DCTCP state.
	alpha                   float64
	winEnd                  int64
	ackedBytes, markedInWin int64

	// Reno-ECN state.
	lastReduceEnd int64

	// Receiver state.
	rcvNxt    int64
	delivered int64

	onDone func()
	done   bool

	// Statistics.
	Retransmits, Timeouts uint64
}

// NewSender creates the sending side of a flow. bytes is the transfer size
// (0 = run until simulation end); onDone fires when the last byte is
// acknowledged.
func NewSender(tr Transport, remote proto.IP, rmac proto.MAC, lport, rport uint16,
	algo CCAlgo, bytes int64, onDone func()) *Conn {
	if bytes <= 0 {
		bytes = math.MaxInt64 / 2
	}
	return &Conn{
		tr: tr, remote: remote, rmac: rmac, lport: lport, rport: rport,
		sender: true, algo: algo, total: bytes,
		cwnd: initialWindow, ssthresh: math.MaxFloat64 / 4,
		alpha: 1, onDone: onDone,
	}
}

// NewReceiver creates the receiving side of a flow.
func NewReceiver(tr Transport, remote proto.IP, rmac proto.MAC, lport, rport uint16, algo CCAlgo) *Conn {
	return &Conn{tr: tr, remote: remote, rmac: rmac, lport: lport, rport: rport, algo: algo}
}

// StartFlow begins transmission on the sender side.
func (c *Conn) StartFlow() {
	if !c.sender {
		panic("tcpstack: StartFlow on receiver conn")
	}
	c.maybeSend()
}

// Delivered returns in-order bytes delivered at the receiver.
func (c *Conn) Delivered() int64 { return c.delivered }

// Alpha returns the DCTCP marking-fraction estimate.
func (c *Conn) Alpha() float64 { return c.alpha }

// ext64 widens a 32-bit wire sequence number near base.
func ext64(base int64, wire uint32) int64 {
	return base + int64(int32(wire-uint32(base)))
}

func (c *Conn) sendSegment(seq int64, size int, flags uint16, ack int64) {
	f := c.tr.NewFrame()
	f.Eth = proto.Ethernet{Dst: c.rmac, Src: c.tr.LocalMAC()}
	f.IP = proto.IPv4{Src: c.tr.LocalIP(), Dst: c.remote, Proto: proto.IPProtoTCP}
	f.TCP = proto.TCP{
		SrcPort: c.lport, DstPort: c.rport,
		Seq: uint32(seq), Ack: uint32(ack), Flags: flags,
		Window: 65535,
	}
	f.VirtualPayload = size
	if size > 0 && c.algo == CCDCTCP {
		f.IP = f.IP.WithECN(proto.ECNECT0)
	}
	f.Seal()
	c.tr.Output(f)
}

// maybeSend transmits as much as the congestion window allows.
func (c *Conn) maybeSend() {
	if c.done {
		return
	}
	for c.sndNxt < c.total && float64(c.sndNxt-c.sndUna)+MSS <= c.cwnd {
		size := MSS
		if rem := c.total - c.sndNxt; rem < int64(size) {
			size = int(rem)
		}
		c.sendSegment(c.sndNxt, size, 0, 0)
		if !c.measureValid {
			c.measureSeq = c.sndNxt + int64(size)
			c.measureAt = c.tr.Now()
			c.measureValid = true
		}
		c.sndNxt += int64(size)
	}
	c.armRTO()
}

func (c *Conn) rto() sim.Time {
	rto := minRTO
	if c.srtt > 0 {
		if est := c.srtt + 4*c.rttvar; est > rto {
			rto = est
		}
	}
	for i := 0; i < c.rtoBackoff && rto < sim.Second; i++ {
		rto *= 2
	}
	return rto
}

// armRTO (re)sets the retransmission deadline. When a posted firing is
// already outstanding it only moves the deadline — the firing re-posts
// itself if it arrives early — so the common ACK path schedules nothing.
func (c *Conn) armRTO() {
	if c.sndUna >= c.sndNxt {
		c.rtoDeadline = 0 // nothing in flight; a pending firing will no-op
		return
	}
	c.rtoDeadline = c.tr.Now() + c.rto()
	if c.rtoPending {
		return
	}
	c.rtoPending = true
	c.tr.PostRTO(c, c.rto())
}

// RTOFire runs when a posted RTO event arrives: stale or early firings
// re-post or vanish, only a firing at (or past) the live deadline times
// out. Transports invoke it from the event their PostRTO scheduled.
func (c *Conn) RTOFire() {
	c.rtoPending = false
	if c.done || c.rtoDeadline == 0 {
		return
	}
	if now := c.tr.Now(); now < c.rtoDeadline {
		c.rtoPending = true
		c.tr.PostRTO(c, c.rtoDeadline-now)
		return
	}
	c.onRTO()
}

func (c *Conn) onRTO() {
	if c.done || c.sndUna >= c.sndNxt {
		return
	}
	c.Timeouts++
	c.rtoBackoff++
	c.ssthresh = math.Max(c.cwnd/2, 2*MSS)
	c.cwnd = MSS
	c.retransmit()
	c.armRTO()
}

func (c *Conn) retransmit() {
	size := MSS
	if rem := c.total - c.sndUna; rem < int64(size) {
		size = int(rem)
	}
	if size <= 0 {
		return
	}
	c.Retransmits++
	c.measureValid = false // Karn's rule: don't time retransmitted data
	c.sendSegment(c.sndUna, size, 0, 0)
	// Go-back-N: the receiver discards out-of-order segments, so everything
	// past the retransmitted segment must be resent in order too.
	c.sndNxt = c.sndUna + int64(size)
}

// Input delivers an arriving TCP frame to this conn.
func (c *Conn) Input(f *proto.Frame) {
	if c.sender {
		c.handleAck(f)
	} else {
		c.handleData(f)
	}
}

// handleData runs on the receiver: accept in-order data, echo ECN marks.
func (c *Conn) handleData(f *proto.Frame) {
	size := f.PayloadLen()
	if size <= 0 {
		return
	}
	seq := ext64(c.rcvNxt, f.TCP.Seq)
	var flags uint16 = proto.TCPAck
	if f.IP.ECN() == proto.ECNCE {
		flags |= proto.TCPEce
	}
	if seq == c.rcvNxt {
		c.rcvNxt += int64(size)
		c.delivered += int64(size)
	}
	// Cumulative ACK (duplicate when out of order).
	c.sendSegment(0, 0, flags, c.rcvNxt)
}

// handleAck runs on the sender.
func (c *Conn) handleAck(f *proto.Frame) {
	if f.TCP.Flags&proto.TCPAck == 0 {
		return
	}
	ack := ext64(c.sndUna, f.TCP.Ack)
	ece := f.TCP.Flags&proto.TCPEce != 0
	if ack > c.sndNxt {
		ack = c.sndNxt
	}
	if ack > c.sndUna {
		acked := ack - c.sndUna
		c.sndUna = ack
		c.dupAcks = 0
		c.rtoBackoff = 0
		if c.measureValid && c.sndUna >= c.measureSeq {
			c.updateRTT(c.tr.Now() - c.measureAt)
			c.measureValid = false
		}
		c.onAckCC(acked, ece)
		if c.sndUna >= c.total {
			c.finish()
			return
		}
		c.maybeSend()
		return
	}
	// Duplicate ACK.
	c.dupAcks++
	if ece {
		c.noteECE()
	}
	if c.dupAcks == 3 {
		c.ssthresh = math.Max(c.cwnd/2, 2*MSS)
		c.cwnd = c.ssthresh
		c.retransmit()
	}
}

func (c *Conn) finish() {
	c.done = true
	c.rtoDeadline = 0
	if c.onDone != nil {
		c.onDone()
	}
}

func (c *Conn) updateRTT(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	diff := c.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + sample) / 8
}

// onAckCC applies congestion-control reaction to a cumulative ACK.
func (c *Conn) onAckCC(acked int64, ece bool) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(acked) // slow start
	} else {
		c.cwnd += MSS * float64(acked) / c.cwnd // congestion avoidance
	}
	if c.algo == CCDCTCP {
		c.ackedBytes += acked
		if ece {
			c.markedInWin += acked
		}
		if c.sndUna >= c.winEnd {
			frac := 0.0
			if c.ackedBytes > 0 {
				frac = float64(c.markedInWin) / float64(c.ackedBytes)
			}
			c.alpha = (1-dctcpG)*c.alpha + dctcpG*frac
			if c.markedInWin > 0 {
				c.cwnd = math.Max(c.cwnd*(1-c.alpha/2), MSS)
				// Congestion observed: leave slow start, or exponential
				// growth would outrun the proportional reduction.
				c.ssthresh = c.cwnd
			}
			c.winEnd = c.sndNxt
			c.ackedBytes, c.markedInWin = 0, 0
		}
		return
	}
	if ece {
		c.noteECE()
	}
}

// noteECE applies classic-ECN halving, at most once per window of data.
func (c *Conn) noteECE() {
	if c.algo != CCReno {
		return
	}
	if c.sndUna > c.lastReduceEnd {
		c.ssthresh = math.Max(c.cwnd/2, 2*MSS)
		c.cwnd = c.ssthresh
		c.lastReduceEnd = c.sndNxt
	}
}
