// Package instantiate is SplitSim's "implementation choices" layer: given
// a system description, it assembles concrete simulator instances — which
// hosts are detailed (qemu/gem5) versus protocol-level, how network
// partitions are wired, and how host/NIC/network
// components connect — into an orch.Simulation ready to run. It provides
// the library of common instantiation strategies the paper describes
// rather than a one-size-fits-all automatic translator.
package instantiate

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
)

// EthLatency is the default Ethernet channel latency between a NIC and the
// network simulator (the link's propagation delay).
const EthLatency = 500 * sim.Nanosecond

// DetailedHost is a full-fidelity host: a host simulator plus its NIC
// simulator, coupled over a PCI channel — two simulator components, i.e.
// two cores in the paper's accounting.
type DetailedHost struct {
	Host *hostsim.Host
	NIC  *nicsim.NIC
}

// NewDetailedHost constructs the pair.
func NewDetailedHost(name string, ip proto.IP, hp hostsim.Params, np nicsim.Params, seed uint64) *DetailedHost {
	return &DetailedHost{
		Host: hostsim.New(name, ip, hp, seed),
		NIC:  nicsim.New(name+".nic", np),
	}
}

// Wire registers the host and NIC on s and connects host<->NIC over PCI
// and NIC<->network through the given external port. netComp is the
// component owning ext (the network or one of its partitions).
func (d *DetailedHost) Wire(s *orch.Simulation, netComp core.Component, ext *netsim.ExtPort) {
	s.Add(d.Host)
	s.Add(d.NIC)
	s.Connect(d.Host.Name()+".pci", pci.DefaultLatency,
		orch.Side{Comp: d.Host, Bind: d.Host.BindNIC, Sink: d.Host.NICSink()},
		orch.Side{Comp: d.NIC, Bind: d.NIC.BindHost, Sink: d.NIC.HostSink()})
	s.Connect(d.Host.Name()+".eth", EthLatency,
		orch.Side{Comp: d.NIC, Bind: d.NIC.BindNet, Sink: d.NIC.NetSink()},
		orch.Side{Comp: netComp, Bind: ext.Bind, Sink: ext})
}

// WirePartitions registers every partition network of a Built topology on
// s and connects each cross-partition boundary with its own channel, named
// bd<link>, at that link's delay. Boundaries register grouped by partition
// pair, pairs in order of first appearance, with the lower partition on side
// A; the trunk adapter is the plan's: every cut channel between one pair of
// runner groups at one latency shares one synchronized link. The last
// argument is ignored.
func WirePartitions(s *orch.Simulation, topo *netsim.Topology, b *netsim.Built, _ bool) {
	for _, part := range b.Parts {
		s.Add(part)
	}
	rank := make(map[[2]int]int)
	var byPair [][]netsim.Boundary
	for _, bd := range b.Boundaries {
		k := [2]int{min(bd.PartA, bd.PartB), max(bd.PartA, bd.PartB)}
		r, seen := rank[k]
		if !seen {
			r = len(byPair)
			rank[k] = r
			byPair = append(byPair, nil)
		}
		byPair[r] = append(byPair[r], bd)
	}
	var name [24]byte // formats each "bd<link>" so only the string allocates
	for _, bds := range byPair {
		for _, bd := range bds {
			a, z := orch.Side{Comp: b.Parts[bd.PartA], Bind: bd.PortA.Bind, Sink: bd.PortA},
				orch.Side{Comp: b.Parts[bd.PartB], Bind: bd.PortB.Bind, Sink: bd.PortB}
			if bd.PartA > bd.PartB {
				a, z = z, a
			}
			s.Connect(string(strconv.AppendInt(append(name[:0], "bd"...), int64(bd.Link), 10)),
				topo.Links[bd.Link].Delay, a, z)
		}
	}
}

// BoundaryMsgs sums frames delivered across all partition boundaries of a
// Built topology (both directions) — input to the decomposition
// performance model.
func BoundaryMsgs(b *netsim.Built) uint64 {
	var total uint64
	for _, bd := range b.Boundaries {
		total += bd.PortA.RxFrames + bd.PortB.RxFrames
	}
	return total
}
