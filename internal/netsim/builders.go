package netsim

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/sim"
)

// DumbbellSpec parametrizes the classic congestion-control topology: n
// hosts on each side of two switches joined by a bottleneck link.
type DumbbellSpec struct {
	HostsPerSide    int
	EdgeRate        int64
	BottleneckRate  int64
	EdgeDelay       sim.Time
	BottleneckDelay sim.Time
}

// DumbbellMeta indexes the pieces of a dumbbell topology.
type DumbbellMeta struct {
	Left, Right     []int // host slot indices
	SwLeft, SwRight int   // switch indices
	Bottleneck      int   // link index
}

// Dumbbell builds the Fig. 6 topology. Host i on the left pairs with host i
// on the right.
func Dumbbell(spec DumbbellSpec) (*Topology, DumbbellMeta) {
	t := &Topology{}
	var m DumbbellMeta
	m.SwLeft = t.AddSwitch("swL")
	m.SwRight = t.AddSwitch("swR")
	m.Bottleneck = t.AddLink(m.SwLeft, m.SwRight, spec.BottleneckRate, spec.BottleneckDelay)
	for i := 0; i < spec.HostsPerSide; i++ {
		l := t.AddHost(fmt.Sprintf("l%d", i), proto.HostIP(uint32(1+i)), m.SwLeft,
			spec.EdgeRate, spec.EdgeDelay)
		r := t.AddHost(fmt.Sprintf("r%d", i), proto.HostIP(uint32(101+i)), m.SwRight,
			spec.EdgeRate, spec.EdgeDelay)
		m.Left = append(m.Left, l)
		m.Right = append(m.Right, r)
	}
	return t, m
}

// FatTreeMeta indexes a k-ary fat tree.
type FatTreeMeta struct {
	K          int
	Core       []int   // core switch indices
	Agg        [][]int // [pod][i] aggregation switches
	Edge       [][]int // [pod][i] edge switches
	HostsByPod [][]int // [pod] host slot indices
}

// FatTree builds a k-ary fat tree with k^3/4 hosts (k even). k=8 yields the
// FatTree8 configuration with 128 servers used in Fig. 8 (following DONS).
func FatTree(k int, hostRate, fabricRate int64, linkDelay sim.Time) (*Topology, FatTreeMeta) {
	if k%2 != 0 || k < 2 {
		panic("netsim: fat tree needs even k >= 2")
	}
	t := &Topology{}
	m := FatTreeMeta{K: k}
	half := k / 2
	for i := 0; i < half*half; i++ {
		m.Core = append(m.Core, t.AddSwitch(fmt.Sprintf("core%d", i)))
	}
	hostID := uint32(1)
	for p := 0; p < k; p++ {
		var aggs, edges, hosts []int
		for i := 0; i < half; i++ {
			aggs = append(aggs, t.AddSwitch(fmt.Sprintf("agg%d.%d", p, i)))
		}
		for i := 0; i < half; i++ {
			edges = append(edges, t.AddSwitch(fmt.Sprintf("edge%d.%d", p, i)))
		}
		// Pod wiring: every edge to every agg in the pod.
		for _, e := range edges {
			for _, a := range aggs {
				t.AddLink(e, a, fabricRate, linkDelay)
			}
		}
		// Core wiring: agg i connects to cores [i*half, (i+1)*half).
		for i, a := range aggs {
			for c := 0; c < half; c++ {
				t.AddLink(a, m.Core[i*half+c], fabricRate, linkDelay)
			}
		}
		// Hosts: half per edge switch.
		for _, e := range edges {
			for h := 0; h < half; h++ {
				hi := t.AddHost(fmt.Sprintf("h%d", hostID), proto.HostIP(hostID), e,
					hostRate, linkDelay)
				hosts = append(hosts, hi)
				hostID++
			}
		}
		m.Agg = append(m.Agg, aggs)
		m.Edge = append(m.Edge, edges)
		m.HostsByPod = append(m.HostsByPod, hosts)
	}
	return t, m
}

// ThreeTierSpec parametrizes the reusable large-scale datacenter topology
// shared by the clock-synchronization case study and the partitioning
// experiments (the paper keeps it in a reusable Python module; here it is a
// reusable Go constructor).
type ThreeTierSpec struct {
	Aggs         int // aggregation switches under the single core
	RacksPerAgg  int
	HostsPerRack int
	CoreRate     int64 // core <-> agg links (paper: 100 Gbps)
	AggRate      int64 // agg <-> ToR links
	HostRate     int64
	LinkDelay    sim.Time
}

// DefaultThreeTier is the 1,200-host configuration: 1 core, 4 aggregation
// switches, 6 racks each, 50 hosts per rack. The paper's prose says 40
// machines per rack but also reports 1,200 hosts total and 1,193 background
// hosts plus 7 detailed hosts; 4·6·40 = 960 does not reach either figure, so
// we use 50 per rack, which gives exactly 1,200 slots.
var DefaultThreeTier = ThreeTierSpec{
	Aggs:         4,
	RacksPerAgg:  6,
	HostsPerRack: 50,
	CoreRate:     100 * sim.Gbps,
	AggRate:      40 * sim.Gbps,
	HostRate:     10 * sim.Gbps,
	LinkDelay:    1 * sim.Microsecond,
}

// ThreeTierMeta indexes the datacenter topology.
type ThreeTierMeta struct {
	Spec        ThreeTierSpec
	Core        int       // core switch index
	Agg         []int     // aggregation switch indices
	Tor         [][]int   // [agg][rack] ToR switch indices
	HostsByRack [][][]int // [agg][rack][i] host slot indices
}

// ThreeTier builds the datacenter topology.
func ThreeTier(spec ThreeTierSpec) (*Topology, ThreeTierMeta) {
	t := &Topology{}
	m := ThreeTierMeta{Spec: spec}
	m.Core = t.AddSwitch("core")
	hostID := uint32(1)
	for a := 0; a < spec.Aggs; a++ {
		agg := t.AddSwitch(fmt.Sprintf("agg%d", a))
		m.Agg = append(m.Agg, agg)
		t.AddLink(m.Core, agg, spec.CoreRate, spec.LinkDelay)
		var tors []int
		var rackHosts [][]int
		for r := 0; r < spec.RacksPerAgg; r++ {
			tor := t.AddSwitch(fmt.Sprintf("tor%d.%d", a, r))
			tors = append(tors, tor)
			t.AddLink(agg, tor, spec.AggRate, spec.LinkDelay)
			var hosts []int
			for h := 0; h < spec.HostsPerRack; h++ {
				hi := t.AddHost(fmt.Sprintf("h%d.%d.%d", a, r, h), proto.HostIP(hostID),
					tor, spec.HostRate, spec.LinkDelay)
				hosts = append(hosts, hi)
				hostID++
			}
			rackHosts = append(rackHosts, hosts)
		}
		m.Tor = append(m.Tor, tors)
		m.HostsByRack = append(m.HostsByRack, rackHosts)
	}
	return t, m
}
