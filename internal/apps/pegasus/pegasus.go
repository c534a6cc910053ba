// Package pegasus implements the Pegasus in-network coherence directory as
// a netsim switch dataplane (Li et al., OSDI'20, as evaluated in the
// paper's in-network-processing case study).
//
// Pegasus does not cache values in the switch. Instead the switch keeps a
// coherence directory for the hottest keys: reads are load-balanced across
// the replicas holding the latest version, and writes are load-balanced to
// *any* replica, which then becomes the key's sole owner. Clients address a
// virtual service IP; the switch rewrites the destination.
package pegasus

import (
	"repro/internal/netsim"
	"repro/internal/proto"
)

// Dataplane is the switch program. Install on a netsim.Switch.
type Dataplane struct {
	// VIP is the virtual service address clients send to.
	VIP proto.IP
	// Servers is the replica set the directory balances across.
	Servers []proto.IP

	dir map[uint64]*dirEntry
	rr  int // round-robin cursor for writes

	// Statistics.
	FwdReads, FwdWrites, Untracked uint64
}

type dirEntry struct {
	owners []int // replica indices holding the newest version
	rr     int   // round-robin cursor for reads
}

// New creates a directory tracking the hottest tracked keys (key ids are
// popularity ranks). Initially every replica holds every tracked key.
func New(vip proto.IP, servers []proto.IP, tracked int) *Dataplane {
	d := &Dataplane{VIP: vip, Servers: servers, dir: make(map[uint64]*dirEntry, tracked)}
	all := make([]int, len(servers))
	for i := range all {
		all[i] = i
	}
	for k := 0; k < tracked; k++ {
		d.dir[uint64(k)] = &dirEntry{owners: append([]int(nil), all...)}
	}
	return d
}

// Process implements netsim.Dataplane.
func (d *Dataplane) Process(sw *netsim.Switch, _ *netsim.Iface, f *proto.Frame) bool {
	if f.IP.Proto != proto.IPProtoUDP || f.UDP.DstPort != proto.PortKV || f.IP.Dst != d.VIP {
		return true
	}
	m, err := proto.ParseKV(f.Payload)
	if err != nil {
		return true
	}
	var target int
	e, tracked := d.dir[m.Key]
	switch {
	case tracked && m.Op == proto.KVGet:
		// Load-balance reads over the owner set.
		target = e.owners[e.rr%len(e.owners)]
		e.rr++
		d.FwdReads++
	case tracked && m.Op == proto.KVSet:
		// Load-balance writes over all replicas; the chosen replica
		// becomes the sole owner of the new version.
		target = d.rr % len(d.Servers)
		d.rr++
		e.owners = e.owners[:0]
		e.owners = append(e.owners, target)
		d.FwdWrites++
	default:
		// Untracked keys are statically partitioned.
		target = int(m.Key % uint64(len(d.Servers)))
		d.Untracked++
	}
	g := f.Clone()
	g.IP.Dst = d.Servers[target]
	g.Eth.Dst = proto.MACFromID(uint32(g.IP.Dst))
	sw.Inject(g)
	return false // original (VIP-addressed) frame consumed
}
