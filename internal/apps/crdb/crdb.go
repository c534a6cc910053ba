// Package crdb implements the commit-wait replicated key-value store of
// the clock-synchronization case study: a CockroachDB-like system (as
// modified by prior work the paper builds on) whose writes wait out the
// dynamic clock error bound reported by chrony before acknowledging, so
// that transaction timestamps are safely in the past on every node. The
// tighter the clock bound, the shorter the commit wait — which is how PTP's
// sub-microsecond bound turns into write throughput and latency gains.
package crdb

import (
	"repro/internal/apps/kv"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// ReplicationPort carries leader-to-follower replication traffic.
const ReplicationPort = proto.PortCRDB + 1

// Params configures a replica.
type Params struct {
	// ReadCost and WriteCost are per-operation CPU costs.
	ReadCost  sim.Time
	WriteCost sim.Time
	// Follower, when set, makes this replica the leader replicating to
	// that address.
	Follower proto.IP
	// Bound returns the current clock error bound (chrony's report); the
	// leader's commit wait. Nil means no commit wait (unsafe config).
	Bound func() sim.Time
}

// DefaultParams models the storage engine costs.
func DefaultParams() Params {
	return Params{
		ReadCost:  3 * sim.Microsecond,
		WriteCost: 6 * sim.Microsecond,
	}
}

type pendingWrite struct {
	src     proto.IP
	srcPort uint16
	msg     proto.KVMsg
	startAt sim.Time
}

// Server is one replica. The leader serves clients on proto.PortCRDB and
// replicates writes to the follower; the follower applies and acks.
type Server struct {
	env core.Host
	p   Params

	versions  map[uint64]uint64
	lastWrite map[uint64]sim.Time      // commit timestamp (local clock) per key
	pending   map[uint64]*pendingWrite // by client seq (client ids disjoint ports)

	// Reads, Writes and Replicated count operations; ReadRestarts counts
	// reads delayed by the uncertainty interval.
	Reads, Writes, Replicated, ReadRestarts uint64
	// CommitWaits accumulates total commit-wait time (for reporting).
	CommitWaits sim.Time
}

// NewServer creates a replica.
func NewServer(p Params) *Server {
	return &Server{
		p:         p,
		versions:  make(map[uint64]uint64),
		lastWrite: make(map[uint64]sim.Time),
		pending:   make(map[uint64]*pendingWrite),
	}
}

// Run binds the replica; call from the host tier's app hook.
func (s *Server) Run(env core.Host) {
	s.env = env
	env.BindUDP(proto.PortCRDB, s.onClient)
	env.BindUDP(ReplicationPort, s.onReplication)
}

func (s *Server) onClient(src proto.IP, srcPort uint16, payload []byte, _ int) {
	m, err := proto.ParseKV(payload)
	if err != nil {
		return
	}
	switch m.Op {
	case proto.KVGet:
		s.env.Compute(s.p.ReadCost, func() {
			// Uncertainty interval: a read whose timestamp falls within the
			// clock error bound of a recent write on the same key cannot
			// tell whether that write happened-before it; CockroachDB
			// restarts the read, which amounts to waiting out the remainder
			// of the interval.
			if wait := s.uncertaintyWait(m.Key); wait > 0 {
				s.ReadRestarts++
				s.env.After(wait, func() { s.serveRead(src, srcPort, m) })
				return
			}
			s.serveRead(src, srcPort, m)
		})
	case proto.KVSet:
		s.env.Compute(s.p.WriteCost, func() {
			s.Writes++
			s.versions[m.Key]++
			s.lastWrite[m.Key] = s.clockNow()
			if s.p.Follower == 0 {
				// Single replica: commit-wait immediately after applying.
				s.commitWait(&pendingWrite{src: src, srcPort: srcPort, msg: m})
				return
			}
			key := replKey(m)
			s.pending[key] = &pendingWrite{src: src, srcPort: srcPort, msg: m, startAt: s.env.Now()}
			s.env.SendUDP(s.p.Follower, ReplicationPort, ReplicationPort,
				proto.AppendKV(nil, m), int(m.ValueLen))
		})
	}
}

// serveRead answers a GET.
func (s *Server) serveRead(src proto.IP, srcPort uint16, m proto.KVMsg) {
	s.Reads++
	reply := m
	reply.Op = proto.KVGetReply
	reply.Ver = s.versions[m.Key]
	reply.ValueLen = 128
	s.env.SendUDP(src, proto.PortCRDB, srcPort, proto.AppendKV(nil, reply), 128)
}

// uncertaintyWait returns how long a read of key must wait to move its
// timestamp past the uncertainty interval of the key's latest write.
func (s *Server) uncertaintyWait(key uint64) sim.Time {
	if s.p.Bound == nil {
		return 0
	}
	last, ok := s.lastWrite[key]
	if !ok {
		return 0
	}
	now := s.clockNow()
	if horizon := last + s.p.Bound(); horizon > now {
		return horizon - now
	}
	return 0
}

// clockNow reads the host system clock when available (detailed hosts),
// falling back to simulation time on protocol-level hosts.
func (s *Server) clockNow() sim.Time {
	if h, ok := s.env.(interface{ ClockNow() sim.Time }); ok {
		return h.ClockNow()
	}
	return s.env.Now()
}

// replKey builds a map key from the client id and sequence number.
func replKey(m proto.KVMsg) uint64 { return uint64(m.Client)<<48 ^ m.Seq }

func (s *Server) onReplication(src proto.IP, srcPort uint16, payload []byte, _ int) {
	m, err := proto.ParseKV(payload)
	if err != nil {
		return
	}
	switch m.Op {
	case proto.KVSet:
		// Follower applies and acks.
		s.env.Compute(s.p.WriteCost, func() {
			s.Replicated++
			s.versions[m.Key]++
			ack := m
			ack.Op = proto.KVSetReply
			s.env.SendUDP(src, ReplicationPort, srcPort, proto.AppendKV(nil, ack), 0)
		})
	case proto.KVSetReply:
		// Leader observes the quorum ack, then waits out the clock bound.
		pd, ok := s.pending[replKey(m)]
		if !ok {
			return
		}
		delete(s.pending, replKey(m))
		s.commitWait(pd)
	}
}

// commitWait delays the client ack until the commit timestamp is safely in
// the past on every replica — the clock-bound wait under study.
func (s *Server) commitWait(pd *pendingWrite) {
	var wait sim.Time
	if s.p.Bound != nil {
		wait = s.p.Bound()
	}
	s.CommitWaits += wait
	finish := func() {
		reply := pd.msg
		reply.Op = proto.KVSetReply
		reply.Ver = s.versions[pd.msg.Key]
		reply.ValueLen = 0
		s.env.SendUDP(pd.src, proto.PortCRDB, pd.srcPort, proto.AppendKV(nil, reply), 0)
	}
	if wait <= 0 {
		finish()
		return
	}
	s.env.After(wait, finish)
}

// SocialClientParams returns the case study's "social" workload: read-heavy
// zipf-distributed accesses with a meaningful write fraction, run closed
// loop against the leader on the CockroachDB port.
func SocialClientParams(id uint32, leader proto.IP) kv.ClientParams {
	p := kv.DefaultClientParams(id, []proto.IP{leader})
	p.Port = proto.PortCRDB
	p.WriteFrac = 0.3
	p.ZipfS = 1.2
	p.Keys = 50_000
	p.Outstanding = 4
	return p
}
