// Package kv implements the key-value client and server applications of
// the in-network-processing case study (NetCache / Pegasus, Fig. 4/5).
//
// The same application code runs at both fidelities — on protocol-level
// netsim hosts (where Compute is free, the ns-3 model) and on detailed
// hostsim hosts (where every receive, compute, and send consumes CPU on a
// single core). This mirrors the paper's setup, which runs the unmodified
// client/server binaries on the simulated Linux hosts and re-implements
// them as ns-3 applications for the protocol-level configuration.
package kv

import (
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ClientPort is the UDP port clients receive replies on.
const ClientPort = 9001

// ServerParams configures a storage server.
type ServerParams struct {
	// ReadCost and WriteCost are the per-operation CPU costs. They only
	// take effect on detailed hosts; protocol-level hosts execute Compute
	// instantaneously, which is precisely the modeling gap under study.
	ReadCost  sim.Time
	WriteCost sim.Time
	// ValueSize is the value payload carried in replies.
	ValueSize int
}

// DefaultServerParams models a small in-memory KV store.
func DefaultServerParams() ServerParams {
	return ServerParams{
		ReadCost:  2 * sim.Microsecond,
		WriteCost: 4 * sim.Microsecond,
		ValueSize: 128,
	}
}

// Server is a replica of the key-value store.
type Server struct {
	env      core.Host
	p        ServerParams
	versions map[uint64]uint64

	// Reads and Writes count operations served.
	Reads, Writes uint64
}

// NewServer creates a server.
func NewServer(p ServerParams) *Server {
	return &Server{p: p, versions: make(map[uint64]uint64)}
}

// Run binds the server to its host; call from the host tier's app hook.
func (s *Server) Run(env core.Host) {
	s.env = env
	env.BindUDP(proto.PortKV, s.onRequest)
}

func (s *Server) onRequest(src proto.IP, srcPort uint16, payload []byte, _ int) {
	m, err := proto.ParseKV(payload)
	if err != nil {
		return
	}
	switch m.Op {
	case proto.KVGet:
		s.env.Compute(s.p.ReadCost, func() {
			s.Reads++
			reply := m
			reply.Op = proto.KVGetReply
			reply.Ver = s.versions[m.Key]
			reply.ValueLen = uint16(s.p.ValueSize)
			s.env.SendUDP(src, proto.PortKV, srcPort,
				proto.AppendKV(nil, reply), s.p.ValueSize)
		})
	case proto.KVSet:
		s.env.Compute(s.p.WriteCost, func() {
			s.Writes++
			s.versions[m.Key]++
			reply := m
			reply.Op = proto.KVSetReply
			reply.Ver = s.versions[m.Key]
			reply.ValueLen = 0
			s.env.SendUDP(src, proto.PortKV, srcPort,
				proto.AppendKV(nil, reply), 0)
		})
	}
}

// ClientParams configures a workload client.
type ClientParams struct {
	// ID distinguishes clients; echoed in requests for reply matching.
	ID uint32
	// Servers is the replica set. Requests for key k go to the replica
	// responsible for k's range (NetCache-style static partitioning by key
	// range, so the hottest keys cluster on one replica) unless VIP is set.
	Servers []proto.IP
	// VIP, when non-zero, routes every request to this virtual service
	// address (the Pegasus switch intercepts and redirects it).
	VIP proto.IP
	// Keys is the key-space size; ZipfS the skew (the paper uses 1.8).
	Keys  int
	ZipfS float64
	// WriteFrac is the SET fraction (the paper uses 0.7).
	WriteFrac float64
	// Rate, when positive, generates an open-loop Poisson workload at this
	// many ops/s. Otherwise the client runs closed-loop with Outstanding
	// requests in flight.
	Rate        float64
	Outstanding int
	// ValueSize is the value payload carried in SETs.
	ValueSize int
	// WarmUp excludes the initial portion from measurements.
	WarmUp sim.Time
	// RetransmitAfter rescues lost requests (drop-tail queues can discard
	// them under overload). Zero disables.
	RetransmitAfter sim.Time
	// Port overrides the server port (default proto.PortKV); the
	// commit-wait database reuses the client with its own port.
	Port uint16
}

// DefaultClientParams returns the paper's client configuration: zipf-1.8
// key popularity with 70% writes.
func DefaultClientParams(id uint32, servers []proto.IP) ClientParams {
	return ClientParams{
		ID: id, Servers: servers,
		Keys: 10_000, ZipfS: 1.8, WriteFrac: 0.7,
		Outstanding: 8, ValueSize: 128,
		WarmUp:          2 * sim.Millisecond,
		RetransmitAfter: 5 * sim.Millisecond,
	}
}

type pending struct {
	sentAt  sim.Time
	isWrite bool
	key     uint64
}

// Client generates the workload and records end-to-end statistics.
type Client struct {
	env  core.Host
	p    ClientParams
	zipf *sim.Zipf
	seq  uint64

	inflight map[uint64]*pending

	// Completed counts measured (post-warm-up) operations.
	Completed uint64
	// SwitchHits counts replies served directly by a switch cache.
	SwitchHits uint64
	// Lat, ReadLat and WriteLat record end-to-end latencies.
	Lat, ReadLat, WriteLat stats.Latency
	// Retransmits counts rescued requests.
	Retransmits uint64
}

// NewClient creates a client.
func NewClient(p ClientParams) *Client {
	if p.Keys <= 0 || (p.Rate <= 0 && p.Outstanding <= 0) {
		panic("kv: client needs keys and a rate or outstanding window")
	}
	if p.Port == 0 {
		p.Port = proto.PortKV
	}
	return &Client{p: p, zipf: sim.NewZipf(p.ZipfS, p.Keys), inflight: make(map[uint64]*pending)}
}

// Run binds and starts the client.
func (c *Client) Run(env core.Host) {
	c.env = env
	env.BindUDP(ClientPort, c.onReply)
	if c.p.Rate > 0 {
		c.scheduleOpen()
		return
	}
	for i := 0; i < c.p.Outstanding; i++ {
		c.sendNext()
	}
}

func (c *Client) scheduleOpen() {
	gap := sim.FromSeconds(c.env.Rand().Exp(1 / c.p.Rate))
	c.env.After(gap, func() {
		c.sendNext()
		c.scheduleOpen()
	})
}

// target picks the destination for a key: range partitioning over the
// popularity-ranked key space.
func (c *Client) target(key uint64) proto.IP {
	if c.p.VIP != 0 {
		return c.p.VIP
	}
	idx := int(key) * len(c.p.Servers) / c.p.Keys
	if idx >= len(c.p.Servers) {
		idx = len(c.p.Servers) - 1
	}
	return c.p.Servers[idx]
}

func (c *Client) sendNext() {
	key := uint64(c.zipf.Next(c.env.Rand()))
	isWrite := c.env.Rand().Float64() < c.p.WriteFrac
	c.seq++
	seq := c.seq
	pd := &pending{sentAt: c.env.Now(), isWrite: isWrite, key: key}
	c.inflight[seq] = pd
	c.transmit(seq, pd)
}

func (c *Client) transmit(seq uint64, pd *pending) {
	m := proto.KVMsg{Key: pd.key, Client: c.p.ID, Seq: seq}
	virtual := 0
	if pd.isWrite {
		m.Op = proto.KVSet
		m.ValueLen = uint16(c.p.ValueSize)
		virtual = c.p.ValueSize
	} else {
		m.Op = proto.KVGet
	}
	c.env.SendUDP(c.target(pd.key), ClientPort, c.p.Port,
		proto.AppendKV(nil, m), virtual)
	if c.p.RetransmitAfter > 0 {
		c.env.After(c.p.RetransmitAfter, func() {
			if _, still := c.inflight[seq]; still {
				c.Retransmits++
				c.transmit(seq, pd)
			}
		})
	}
}

func (c *Client) onReply(_ proto.IP, _ uint16, payload []byte, _ int) {
	m, err := proto.ParseKV(payload)
	if err != nil || (m.Op != proto.KVGetReply && m.Op != proto.KVSetReply) {
		return
	}
	pd, ok := c.inflight[m.Seq]
	if !ok {
		return // duplicate after retransmit
	}
	delete(c.inflight, m.Seq)
	now := c.env.Now()
	if now >= c.p.WarmUp {
		c.Completed++
		d := now - pd.sentAt
		c.Lat.Add(d)
		if pd.isWrite {
			c.WriteLat.Add(d)
		} else {
			c.ReadLat.Add(d)
		}
		if m.Flags&proto.KVFlagSwitchHit != 0 {
			c.SwitchHits++
		}
	}
	if c.p.Rate <= 0 {
		c.sendNext() // closed loop
	}
}
