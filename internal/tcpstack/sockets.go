package tcpstack

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/snap"
)

// connKey names a connection from its own end: peer address, peer port,
// local port — what an arriving segment's source and destination carry.
type connKey struct {
	remote proto.IP
	rport  uint16
	lport  uint16
}

// Sockets is a host's socket layer: its UDP port bindings, its TCP
// connection table, and the demux that hands an arriving frame to one of
// them. Protocol-level and detailed hosts embed the same table, so an
// application finds one socket behaviour under either fidelity. The zero
// value is ready to use.
type Sockets struct {
	udp   map[uint16]core.UDPHandler
	conns map[connKey]*Conn
}

// BindUDP registers a datagram handler for a local port. Binding a port
// twice is a wiring bug and panics.
func (s *Sockets) BindUDP(port uint16, fn core.UDPHandler) {
	if _, dup := s.udp[port]; dup {
		panic(fmt.Sprintf("tcpstack: UDP port %d already bound", port))
	}
	if s.udp == nil {
		s.udp = make(map[uint16]core.UDPHandler)
	}
	s.udp[port] = fn
}

// Add registers c for demux under its own addresses and ports.
func (s *Sockets) Add(c *Conn) {
	if s.conns == nil {
		s.conns = make(map[connKey]*Conn)
	}
	s.conns[connKey{remote: c.remote, rport: c.rport, lport: c.lport}] = c
}

// Lookup returns the connection to remote:rport on local port lport, or nil.
func (s *Sockets) Lookup(remote proto.IP, rport, lport uint16) *Conn {
	return s.conns[connKey{remote: remote, rport: rport, lport: lport}]
}

// Deliver hands an arriving frame to its bound UDP handler or its TCP
// connection. A frame for an unbound port or an unknown connection is
// dropped. Neither target retains f, and f stays the caller's to release.
func (s *Sockets) Deliver(f *proto.Frame) {
	switch f.IP.Proto {
	case proto.IPProtoUDP:
		if fn, ok := s.udp[f.UDP.DstPort]; ok {
			fn(f.IP.Src, f.UDP.SrcPort, f.Payload, f.VirtualPayload)
		}
	case proto.IPProtoTCP:
		if c := s.Lookup(f.IP.Src, f.TCP.SrcPort, f.TCP.DstPort); c != nil {
			c.Input(f)
		}
	}
}

// Snapshot appends the connection table: its size, then for each
// connection in (remote, rport, lport) order — maps iterate randomly — the
// key and the connection's protocol state. UDP bindings are identity,
// rebuilt by the same build.
func (s *Sockets) Snapshot(e *snap.Encoder) {
	keys := make([]connKey, 0, len(s.conns))
	for k := range s.conns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b connKey) int {
		return cmp.Or(cmp.Compare(a.remote, b.remote), cmp.Compare(a.rport, b.rport), cmp.Compare(a.lport, b.lport))
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(uint64(k.remote))
		e.U32(uint32(k.rport)<<16 | uint32(k.lport))
		s.conns[k].Snapshot(e)
	}
}

// Restore loads a table written by Snapshot into one built identically.
// Connections are build-time identity, so a snapshot whose connection set
// differs from the table's in either direction — one created or torn down
// mid-run, or a build that installed different flows — returns
// core.ErrNotCheckpointable.
func (s *Sockets) Restore(d *snap.Decoder) error {
	n := int(d.U32())
	if n != len(s.conns) {
		return fmt.Errorf("%w: snapshot has %d TCP conns, build has %d",
			core.ErrNotCheckpointable, n, len(s.conns))
	}
	for range n {
		remote := proto.IP(d.U64())
		ports := d.U32()
		c := s.Lookup(remote, uint16(ports>>16), uint16(ports))
		if c == nil {
			return fmt.Errorf("%w: build has no TCP conn %v:%d->%d",
				core.ErrNotCheckpointable, remote, uint16(ports>>16), uint16(ports))
		}
		if err := c.Restore(d); err != nil {
			return err
		}
	}
	return nil
}
