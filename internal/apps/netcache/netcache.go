// Package netcache implements the NetCache in-network key-value cache as a
// netsim switch dataplane (Jin et al., SOSP'17, as evaluated in the
// paper's in-network-processing case study).
//
// NetCache caches hot items in the switch: GETs for cached keys are
// answered directly from the dataplane, while all writes continue to the
// single responsible storage replica (clients range-partition the key
// space, so the hottest keys share one replica). A write passing through
// the switch updates the cached entry in place (write-through on the data
// path), and the server's SET reply confirms the authoritative version on
// the way back.
package netcache

import (
	"repro/internal/netsim"
	"repro/internal/proto"
)

// Dataplane is the switch program. Install on a netsim.Switch.
type Dataplane struct {
	// entries caches the hottest keys. Key ids double as popularity ranks
	// (the workload draws zipf ranks directly), so the controller warms
	// the cache with keys 0..HotKeys-1, matching NetCache's controller
	// keeping the hottest O(10k) items cached.
	entries   map[uint64]*entry
	valueSize uint16

	// Statistics.
	Hits, Misses, Updates, Refreshes uint64
}

type entry struct {
	ver      uint64
	valid    bool
	valueLen uint16
}

// New creates a dataplane with the hottest hotKeys items pre-cached (the
// controller's warm start), valueSize bytes each.
func New(hotKeys, valueSize int) *Dataplane {
	d := &Dataplane{entries: make(map[uint64]*entry, hotKeys), valueSize: uint16(valueSize)}
	for k := 0; k < hotKeys; k++ {
		d.entries[uint64(k)] = &entry{valid: true, valueLen: uint16(valueSize)}
	}
	return d
}

// Process implements netsim.Dataplane.
func (d *Dataplane) Process(sw *netsim.Switch, _ *netsim.Iface, f *proto.Frame) bool {
	if f.IP.Proto != proto.IPProtoUDP {
		return true
	}
	switch f.UDP.DstPort {
	case proto.PortKV:
		return d.onRequest(sw, f)
	default:
		d.onReplyPassing(f)
		return true
	}
}

// onRequest handles client->server traffic.
func (d *Dataplane) onRequest(sw *netsim.Switch, f *proto.Frame) bool {
	m, err := proto.ParseKV(f.Payload)
	if err != nil {
		return true
	}
	switch m.Op {
	case proto.KVGet:
		e, ok := d.entries[m.Key]
		if !ok || !e.valid {
			d.Misses++
			return true
		}
		d.Hits++
		reply := m
		reply.Op = proto.KVGetReply
		reply.Ver = e.ver
		reply.ValueLen = e.valueLen
		reply.Flags |= proto.KVFlagSwitchHit
		rf := &proto.Frame{
			Eth:            proto.Ethernet{Dst: f.Eth.Src, Src: f.Eth.Dst},
			IP:             proto.IPv4{Src: f.IP.Dst, Dst: f.IP.Src, Proto: proto.IPProtoUDP},
			UDP:            proto.UDP{SrcPort: proto.PortKV, DstPort: f.UDP.SrcPort},
			Payload:        proto.AppendKV(nil, reply),
			VirtualPayload: int(e.valueLen),
		}
		rf.Seal()
		sw.Inject(rf)
		return false // consumed: served from the switch
	case proto.KVSet:
		if e, ok := d.entries[m.Key]; ok {
			// Write-through: update the cached value as the write passes.
			e.ver = m.Ver
			e.valueLen = d.valueSize
			e.valid = true
			d.Updates++
		}
		return true // writes always go to the responsible replica
	default:
		return true
	}
}

// onReplyPassing watches server->client replies to refresh invalidated
// entries with the new version.
func (d *Dataplane) onReplyPassing(f *proto.Frame) {
	m, err := proto.ParseKV(f.Payload)
	if err != nil || m.Op != proto.KVSetReply {
		return
	}
	if e, ok := d.entries[m.Key]; ok {
		e.ver = m.Ver
		e.valid = true
		d.Refreshes++
	}
}
