package clocksync

import (
	"repro/internal/hostsim"
	"repro/internal/nicsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PTPMaster is the grandmaster: it unicasts two-step Sync/FollowUp pairs to
// each slave and answers DelayReq with hardware receive timestamps. Run it
// on a host whose NIC PHC is the time reference (zero drift).
type PTPMaster struct {
	// Slaves lists the slave addresses.
	Slaves []proto.IP
	// Interval is the PTP Sync message interval (ptp4l's default is 2^0 =
	// 1s; datacenter profiles run much faster).
	Interval sim.Time

	h *hostsim.Host
	// Syncs counts Sync messages sent.
	Syncs uint64
}

// Run starts the master; use from a hostsim app hook.
func (m *PTPMaster) Run(h *hostsim.Host) {
	m.h = h
	if m.Interval <= 0 {
		m.Interval = 250 * sim.Millisecond
	}
	// Answer DelayReq on the event port with the hardware RX timestamp.
	h.BindUDP(proto.PortPTPEvent, func(src proto.IP, sport uint16, payload []byte, _ int) {
		req, err := proto.ParsePTP(payload)
		if err != nil || req.Type != proto.PTPDelayReq {
			return
		}
		t4 := h.LastRxHWTime()
		resp := proto.PTPMsg{
			Type: proto.PTPDelayResp, Seq: req.Seq,
			Origin:     t4,
			Correction: req.Correction, // echo accumulated TC residence
		}
		h.SendUDP(src, proto.PortPTPGeneral, proto.PortPTPGeneral,
			proto.AppendPTP(nil, resp), 0)
	})
	seq := uint16(0)
	var tick func()
	tick = func() {
		seq++
		for _, slave := range m.Slaves {
			m.sendSync(slave, seq)
		}
		h.After(m.Interval, tick)
	}
	h.After(m.Interval/8, tick)
}

// sendSync sends a hardware-timestamped Sync and follows up with the
// precise origin timestamp (two-step clock).
func (m *PTPMaster) sendSync(slave proto.IP, seq uint16) {
	m.Syncs++
	h := m.h
	sync := proto.PTPMsg{Type: proto.PTPSync, Seq: seq}
	h.SendUDPTimestamped(slave, proto.PortPTPEvent, proto.PortPTPEvent,
		proto.AppendPTP(nil, sync), func(hwT1 sim.Time) {
			fu := proto.PTPMsg{Type: proto.PTPFollowUp, Seq: seq, Origin: hwT1}
			h.SendUDP(slave, proto.PortPTPGeneral, proto.PortPTPGeneral,
				proto.AppendPTP(nil, fu), 0)
		})
}

// PTPSlave is the ptp4l analog: it disciplines the local NIC's PTP
// hardware clock from Sync/FollowUp/DelayReq/DelayResp exchanges using
// hardware timestamps, with transparent-clock corrections removing switch
// queueing from both paths.
type PTPSlave struct {
	// Master is the grandmaster address.
	Master proto.IP
	// NIC is the slave's NIC, whose PHC the servo adjusts.
	NIC *nicsim.NIC
	// DelayReqEvery issues a delay measurement every n Syncs (default 1).
	DelayReqEvery int

	h *hostsim.Host

	// per-exchange state
	syncSeq  uint16
	t2       sim.Time // hw rx timestamp of Sync
	corrSync sim.Time // TC residence accumulated by the Sync
	t1       sim.Time // precise origin from FollowUp
	t3       sim.Time // hw tx timestamp of DelayReq
	corrDreq sim.Time

	// servo state
	lastOffset   sim.Time
	lastOffsetAt sim.Time
	haveLast     bool

	// Offsets records measured offsets (after TC correction).
	Offsets stats.Latency
	// PathDelay is the latest mean path delay estimate.
	PathDelay sim.Time
	// Exchanges counts completed offset computations.
	Exchanges uint64

	bound sim.Time
}

// Run binds the slave; use from a hostsim app hook.
func (s *PTPSlave) Run(h *hostsim.Host) {
	s.h = h
	if s.DelayReqEvery <= 0 {
		s.DelayReqEvery = 1
	}
	h.BindUDP(proto.PortPTPEvent, func(src proto.IP, _ uint16, payload []byte, _ int) {
		m, err := proto.ParsePTP(payload)
		if err != nil || m.Type != proto.PTPSync {
			return
		}
		s.syncSeq = m.Seq
		s.t2 = h.LastRxHWTime()
		s.corrSync = m.Correction
	})
	h.BindUDP(proto.PortPTPGeneral, func(src proto.IP, _ uint16, payload []byte, _ int) {
		m, err := proto.ParsePTP(payload)
		if err != nil {
			return
		}
		switch m.Type {
		case proto.PTPFollowUp:
			if m.Seq != s.syncSeq {
				return
			}
			s.t1 = m.Origin
			s.sendDelayReq(m.Seq)
		case proto.PTPDelayResp:
			if m.Seq != s.syncSeq {
				return
			}
			s.corrDreq = m.Correction
			s.complete(m.Origin)
		}
	})
}

func (s *PTPSlave) sendDelayReq(seq uint16) {
	req := proto.PTPMsg{Type: proto.PTPDelayReq, Seq: seq}
	s.h.SendUDPTimestamped(s.Master, proto.PortPTPEvent, proto.PortPTPEvent,
		proto.AppendPTP(nil, req), func(hwT3 sim.Time) {
			s.t3 = hwT3
		})
}

// complete runs when DelayResp closes the exchange: compute offset and mean
// path delay, discipline the PHC.
func (s *PTPSlave) complete(t4 sim.Time) {
	// Master-to-slave and slave-to-master deltas, with transparent-clock
	// residence removed.
	ms := (s.t2 - s.t1) - s.corrSync
	sm := (t4 - s.t3) - s.corrDreq
	// offsetFromMaster = slaveTime - masterTime (ptp4l's convention).
	offset := (ms - sm) / 2
	s.PathDelay = (ms + sm) / 2
	s.Exchanges++
	s.Offsets.Add(offset)

	now := s.h.Now()
	// ptp4l PI servo: step the phase, learn the frequency error.
	if s.haveLast {
		dt := now - s.lastOffsetAt
		if dt > 0 {
			freqErrPPM := float64(offset) / float64(dt) * 1e6
			s.NIC.AdjPHCFreq(-0.5 * freqErrPPM)
		}
	}
	s.NIC.SetPHCOffset(-offset)
	s.haveLast = true
	s.lastOffset = offset
	s.lastOffsetAt = now

	// Residual bound: timestamp granularity at four stamping points plus
	// the remaining (post-servo) offset magnitude.
	quantum := 8 * sim.Nanosecond
	resid := offset
	if resid < 0 {
		resid = -resid
	}
	s.bound = resid + 4*quantum
}

// Bound returns the slave's current PHC error bound estimate.
func (s *PTPSlave) Bound() sim.Time {
	if s.bound == 0 {
		return sim.Millisecond // not yet synchronized
	}
	return s.bound
}
