// Package topogen generates datacenter-scale fabrics for netsim: multi-pod
// Clos topologies (with the classic k-ary fat tree as a special case), pod-
// aligned IP addressing, aggregate (prefix) routes that keep per-switch
// routing state O(pods) instead of O(hosts), and lazy host slots so a
// 10⁴–10⁵-host fabric only pays instantiation cost for the hosts a workload
// actually touches.
package topogen

import (
	"fmt"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// ClosSpec parametrizes a three-tier multi-pod Clos fabric: Pods pods of
// LeafPerPod leaf (ToR) switches and SpinePerPod spine switches each, joined
// by a core tier of Cores switches. Within a pod every leaf connects to
// every spine; spine j of every pod connects to the core group
// [j·g, (j+1)·g) where g = Cores/SpinePerPod, so any two pods are two hops
// apart through g parallel cores per spine pair.
type ClosSpec struct {
	Pods         int
	LeafPerPod   int
	SpinePerPod  int
	Cores        int // multiple of SpinePerPod; 0 allowed when Pods == 1
	HostsPerLeaf int

	HostRate int64 // host access links
	// LeafRate is the leaf↔spine link rate; 0 derives the non-blocking
	// rate, uplink capacity (SpinePerPod·LeafRate) equal to downlink
	// capacity (HostsPerLeaf·HostRate).
	LeafRate int64
	CoreRate int64 // spine↔core links; 0 copies LeafRate

	LinkDelay sim.Time

	// Lazy leaves every host slot uninstantiated until
	// Built.MaterializeSlot; mandatory in practice beyond ~10⁴ hosts.
	Lazy bool

	// FlatRoutes suppresses aggregates and installs classic per-IP routes
	// on every switch. O(hosts·switches) state — only viable for small
	// instances; it exists so tests can compare prefix and per-IP routing
	// on the same fabric.
	FlatRoutes bool

	// DefaultUp replaces the globally-visible per-pod aggregates with a
	// three-level default-route plan: leaf aggregates stay scoped to their
	// pod, pod aggregates are scoped to the core tier plus the pod's own
	// switches, and a single global 10.0.0.0/8 default targets the cores.
	// Off-pod reachability then costs every pod switch one entry instead
	// of O(Pods), moving the O(Pods) tier onto the cores alone — the
	// difference between 10⁵- and 10⁶-endpoint fabrics fitting in memory.
	// Forwarding is hop-for-hop identical to the per-pod plan for valid
	// addresses (the ECMP candidate sets coincide at every tier); invalid
	// pod bits blackhole at a core instead of dropping at the source leaf.
	// Only meaningful when Pods > 1 and LeafPerPod > 1.
	DefaultUp bool
}

// ClosMeta indexes the generated fabric.
type ClosMeta struct {
	Spec ClosSpec

	Core      []int     // core switch indices
	Spine     [][]int   // [pod][j] spine switch indices
	Leaf      [][]int   // [pod][l] leaf switch indices
	HostSlots [][][]int // [pod][leaf][i] host slot indices

	// PodPrefix[p] aggregates every address in pod p; LeafPrefix[p][l]
	// aggregates one leaf's block. Derivable from the bit layout but kept
	// explicit for tests and tooling.
	PodPrefix  []proto.Prefix
	LeafPrefix [][]proto.Prefix

	hostBits, leafBits, podBits uint
}

// nameTable formats a run of names into one buffer, turns it into a single
// string and hands out substrings of it in order: one allocation per table
// where a Sprintf per name made names most of what a 10⁶-slot fabric
// allocates. Clos fills one table with every switch name and one, reset from
// pod to pod, with each pod's host names.
type nameTable struct {
	buf  []byte
	ends []int // ends[i] is where name i stops in all
	all  string
	next int // the name take returns next
}

// reset empties the table, keeping its buffers.
func (n *nameTable) reset() { n.buf, n.ends, n.next = n.buf[:0], n.ends[:0], 0 }

// add appends prefix followed by nums, dot-separated: add("h", 1, 2, 3)
// formats "h1.2.3".
func (n *nameTable) add(prefix string, nums ...int) {
	n.buf = append(n.buf, prefix...)
	for k, v := range nums {
		if k > 0 {
			n.buf = append(n.buf, '.')
		}
		n.buf = strconv.AppendInt(n.buf, int64(v), 10)
	}
	n.ends = append(n.ends, len(n.buf))
}

// seal makes the names added so far the ones take hands out.
func (n *nameTable) seal() { n.all = string(n.buf) }

// take returns the next name of the sealed table.
func (n *nameTable) take() string {
	start := 0
	if n.next > 0 {
		start = n.ends[n.next-1]
	}
	n.next++
	return n.all[start:n.ends[n.next-1]]
}

// bitsFor returns the smallest b with 1<<b >= n.
func bitsFor(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// HostIP returns the pod-aligned address of host i (0-based) on leaf l of
// pod p: 10.<pod bits><leaf bits><host bits>, host index starting at 1 so a
// leaf's block base is never a host address.
func (m *ClosMeta) HostIP(pod, leaf, i int) proto.IP {
	return proto.IP(0x0a000000 |
		uint32(pod)<<(m.leafBits+m.hostBits) |
		uint32(leaf)<<m.hostBits |
		uint32(i+1))
}

// TotalHosts returns the number of host slots in the fabric.
func (m *ClosMeta) TotalHosts() int {
	return m.Spec.Pods * m.Spec.LeafPerPod * m.Spec.HostsPerLeaf
}

// PodSwitches returns the switch indices of pod p (leaves then spines).
func (m *ClosMeta) PodSwitches(pod int) []int {
	out := make([]int, 0, len(m.Leaf[pod])+len(m.Spine[pod]))
	out = append(out, m.Leaf[pod]...)
	out = append(out, m.Spine[pod]...)
	return out
}

// AssignByPod maps the fabric onto parts partitions for Topology.Build:
// each pod's switches land together on partition pod·parts/Pods, and cores
// spread proportionally. Hosts follow their leaf automatically.
func (m *ClosMeta) AssignByPod(parts int) []int {
	n := len(m.Core)
	for _, pod := range m.Spine {
		n += len(pod)
	}
	for _, pod := range m.Leaf {
		n += len(pod)
	}
	assign := make([]int, n)
	for p := 0; p < m.Spec.Pods; p++ {
		part := p * parts / m.Spec.Pods
		for _, s := range m.PodSwitches(p) {
			assign[s] = part
		}
	}
	for i, c := range m.Core {
		if len(m.Core) > 0 {
			assign[c] = i * parts / len(m.Core)
		}
	}
	return assign
}

// Clos generates the fabric as a netsim Topology plus its index. The
// address plan packs pod, leaf, and host fields into the low 24 bits of
// 10.0.0.0/8; aggregates (unless FlatRoutes) are one scoped prefix per leaf
// (visible inside its pod) and one global prefix per pod (targeting the
// pod's spines), so every switch holds O(Pods + LeafPerPod) routing entries
// regardless of host count.
func Clos(spec ClosSpec) (*netsim.Topology, *ClosMeta) {
	if spec.Pods < 1 || spec.LeafPerPod < 1 || spec.SpinePerPod < 1 || spec.HostsPerLeaf < 1 {
		panic("topogen: Pods, LeafPerPod, SpinePerPod, HostsPerLeaf must all be >= 1")
	}
	if spec.Cores == 0 && spec.Pods > 1 {
		panic("topogen: multi-pod Clos needs a core tier")
	}
	if spec.Cores > 0 && spec.Cores%spec.SpinePerPod != 0 {
		panic(fmt.Sprintf("topogen: Cores (%d) must be a multiple of SpinePerPod (%d)",
			spec.Cores, spec.SpinePerPod))
	}
	if spec.LeafRate == 0 {
		spec.LeafRate = int64(float64(spec.HostsPerLeaf) * float64(spec.HostRate) /
			float64(spec.SpinePerPod))
		if spec.LeafRate <= 0 {
			panic("topogen: derived LeafRate is not positive")
		}
	}
	if spec.CoreRate == 0 {
		spec.CoreRate = spec.LeafRate
	}

	m := &ClosMeta{
		Spec:     spec,
		hostBits: bitsFor(spec.HostsPerLeaf + 1),
		leafBits: bitsFor(spec.LeafPerPod),
		podBits:  bitsFor(spec.Pods),
	}
	if m.hostBits+m.leafBits+m.podBits > 24 {
		panic(fmt.Sprintf("topogen: address plan needs %d bits, only 24 available in 10.0.0.0/8",
			m.hostBits+m.leafBits+m.podBits))
	}

	g := 0
	if spec.Cores > 0 {
		g = spec.Cores / spec.SpinePerPod
	}
	// Every table is sized from the spec: at 10⁶ slots, growing Hosts by
	// append took 39 reallocations, five times its final size in garbage.
	t := &netsim.Topology{
		Switches: make([]netsim.TopoSwitch, 0, spec.Cores+spec.Pods*(spec.SpinePerPod+spec.LeafPerPod)),
		Hosts:    make([]netsim.TopoHost, 0, m.TotalHosts()),
		Links:    make([]netsim.TopoLink, 0, spec.Pods*spec.SpinePerPod*(spec.LeafPerPod+g)),
	}
	// Switch names, in the order the switches are added.
	var swNames, hostNames nameTable
	for c := 0; c < spec.Cores; c++ {
		swNames.add("core", c)
	}
	for p := 0; p < spec.Pods; p++ {
		for j := 0; j < spec.SpinePerPod; j++ {
			swNames.add("spine", p, j)
		}
		for l := 0; l < spec.LeafPerPod; l++ {
			swNames.add("leaf", p, l)
		}
	}
	swNames.seal()
	for c := 0; c < spec.Cores; c++ {
		m.Core = append(m.Core, t.AddSwitch(swNames.take()))
	}
	for p := 0; p < spec.Pods; p++ {
		spines := make([]int, 0, spec.SpinePerPod)
		leaves := make([]int, 0, spec.LeafPerPod)
		for j := 0; j < spec.SpinePerPod; j++ {
			spines = append(spines, t.AddSwitch(swNames.take()))
		}
		for l := 0; l < spec.LeafPerPod; l++ {
			leaves = append(leaves, t.AddSwitch(swNames.take()))
		}
		for _, lf := range leaves {
			for _, sp := range spines {
				t.AddLink(lf, sp, spec.LeafRate, spec.LinkDelay)
			}
		}
		for j, sp := range spines {
			for c := 0; c < g; c++ {
				t.AddLink(sp, m.Core[j*g+c], spec.CoreRate, spec.LinkDelay)
			}
		}

		// One name string and one slot array per pod; each leaf's slots
		// are a capped window of the array.
		hostNames.reset()
		for l := range leaves {
			for i := 0; i < spec.HostsPerLeaf; i++ {
				hostNames.add("h", p, l, i)
			}
		}
		hostNames.seal()
		slots := make([]int, 0, spec.LeafPerPod*spec.HostsPerLeaf)
		podHosts := make([][]int, spec.LeafPerPod)
		leafPrefixes := make([]proto.Prefix, spec.LeafPerPod)
		for l, lf := range leaves {
			leafPrefixes[l] = proto.MakePrefix(m.HostIP(p, l, 0), 32-int(m.hostBits))
			first := len(slots)
			for i := 0; i < spec.HostsPerLeaf; i++ {
				ip := m.HostIP(p, l, i)
				name := hostNames.take()
				var hi int
				if spec.Lazy {
					hi = t.AddLazyHost(name, ip, lf, spec.HostRate, spec.LinkDelay)
				} else {
					hi = t.AddHost(name, ip, lf, spec.HostRate, spec.LinkDelay)
				}
				slots = append(slots, hi)
			}
			podHosts[l] = slots[first:len(slots):len(slots)]
		}
		m.Spine = append(m.Spine, spines)
		m.Leaf = append(m.Leaf, leaves)
		m.HostSlots = append(m.HostSlots, podHosts)
		m.PodPrefix = append(m.PodPrefix,
			proto.MakePrefix(m.HostIP(p, 0, 0), 32-int(m.hostBits+m.leafBits)))
		m.LeafPrefix = append(m.LeafPrefix, leafPrefixes)
	}

	if !spec.FlatRoutes {
		for p := 0; p < spec.Pods; p++ {
			if spec.LeafPerPod == 1 {
				// leafBits is 0, so the leaf block IS the pod block; a
				// scoped leaf aggregate plus a same-length pod aggregate
				// would collide (the pod blackhole at the spines would
				// shadow the leaf route). Install one global aggregate
				// per pod targeting its single leaf instead.
				t.AddAggregate(m.LeafPrefix[p][0], []int{m.Leaf[p][0]}, nil)
				continue
			}
			podScope := m.PodSwitches(p)
			for l, lf := range m.Leaf[p] {
				// One leaf aggregate, visible only inside the pod: pod
				// peers reach the leaf through the spines; everyone else
				// gets there through the pod aggregate first.
				t.AddAggregate(m.LeafPrefix[p][l], []int{lf}, podScope)
			}
			// One pod aggregate targeting the pod's spines. In a
			// single-pod fabric the leaf aggregates already cover
			// everything and a global spine-target would shadow nothing —
			// skip it and let unknown pods blackhole by absence. Under
			// DefaultUp the aggregate is scoped to the cores and the pod
			// itself; everyone else reaches the pod via the default below.
			if spec.Pods > 1 {
				if spec.DefaultUp {
					scope := make([]int, 0, len(m.Core)+len(podScope))
					scope = append(scope, m.Core...)
					scope = append(scope, podScope...)
					t.AddAggregate(m.PodPrefix[p], m.Spine[p], scope)
				} else {
					t.AddAggregate(m.PodPrefix[p], m.Spine[p], nil)
				}
			}
		}
		if spec.DefaultUp && spec.Pods > 1 && spec.LeafPerPod > 1 {
			// The global default: any address in 10/8 without a longer
			// match travels up to the core tier, where the pod aggregates
			// take over (or blackhole unknown pods).
			t.AddAggregate(proto.MakePrefix(proto.IP(0x0a000000), 8), m.Core, nil)
		}
	}
	return t, m
}
