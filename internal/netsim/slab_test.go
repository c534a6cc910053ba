package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slab"
)

// TestIfacePointersStable holds the interface slab to its promise: an
// *Iface taken from Switch.Ifaces() keeps pointing at the same interface —
// its owner, peer, rate and delay — after 1,000 lazy slots materialize
// (more interfaces than several slab chunks hold, and every leaf's list
// moves out of Build's presized array) and an external port is added, and
// no later interface is carved over an earlier one.
func TestIfacePointersStable(t *testing.T) {
	const leaves, perLeaf = 4, 300
	var topo Topology
	spine := topo.AddSwitch("spine")
	for l := 0; l < leaves; l++ {
		leaf := topo.AddSwitch(fmt.Sprintf("leaf%d", l))
		topo.AddLink(leaf, spine, 40*sim.Gbps, sim.Microsecond)
		topo.AddHost(fmt.Sprintf("h%d", l), proto.HostIP(uint32(1+l)), leaf, 10*sim.Gbps, sim.Microsecond)
		for i := 0; i < perLeaf; i++ {
			ip := proto.HostIP(uint32(1000 + l*perLeaf + i))
			topo.AddLazyHost(fmt.Sprintf("h%d.%d", l, i), ip, leaf, 10*sim.Gbps, sim.Microsecond)
		}
	}
	b := topo.Build("slab", 1, nil, nil)

	type snapshot struct {
		ifc         *Iface
		owner, peer string
		rate        int64
		delay       sim.Time
	}
	var before [][]snapshot
	for _, sw := range b.Switches {
		var row []snapshot
		for _, ifc := range sw.Ifaces() {
			row = append(row, snapshot{ifc, ifc.owner.nodeName(), ifc.Peer().owner.nodeName(), ifc.Rate(), ifc.Delay()})
		}
		before = append(before, row)
	}

	materialized := 0
	for i, th := range topo.Hosts {
		if th.Lazy && materialized < 1000 {
			b.MaterializeSlot(i)
			materialized++
		}
	}
	if per := slab.PerChunk[Iface](); 2*materialized < 3*per {
		t.Fatalf("%d materialized slots carve %d interfaces, fewer than three %d-interface chunks",
			materialized, 2*materialized, per)
	}
	b.Parts[0].AddExternal(b.Switches[spine], "nic", 10*sim.Gbps)

	seen := make(map[*Iface]bool)
	for v, sw := range b.Switches {
		now := sw.Ifaces()
		for i, s := range before[v] {
			ifc := now[i]
			if ifc != s.ifc {
				t.Fatalf("%s iface %d moved: %p, was %p", sw.Name(), i, ifc, s.ifc)
			}
			got := snapshot{ifc, ifc.owner.nodeName(), ifc.Peer().owner.nodeName(), ifc.Rate(), ifc.Delay()}
			if got != s {
				t.Fatalf("%s iface %d reads %+v, was %+v", sw.Name(), i, got, s)
			}
		}
		for _, ifc := range now {
			if seen[ifc] {
				t.Fatalf("iface %s carved twice", ifc.Name())
			}
			seen[ifc] = true
		}
	}
	for _, h := range b.Hosts {
		if h == nil {
			continue
		}
		if seen[h.Iface()] || !slices.Contains(h.Iface().Peer().owner.(*Switch).Ifaces(), h.Iface().Peer()) {
			t.Fatalf("host %s iface shares a switch iface or lost its peer", h.Name())
		}
	}
	if want := 2*leaves + leaves + materialized + 1; len(seen) != want {
		t.Fatalf("%d switch ifaces, want %d", len(seen), want)
	}
}
