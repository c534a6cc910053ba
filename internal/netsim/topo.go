package netsim

import (
	"fmt"
	"slices"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Topology is a declarative description of a network: switches, protocol-
// level hosts, switch-to-switch links, and attachment points for detailed
// (externally simulated) hosts. One Topology can be instantiated as a single
// Network or split across several partition Networks — the SplitSim
// "parallelization through decomposition" path — with globally consistent
// shortest-path routes either way.
type Topology struct {
	Switches []TopoSwitch
	Hosts    []TopoHost
	Links    []TopoLink
	// Prefixes, when non-empty, switches Build into hierarchical routing:
	// per-IP routes are installed only on each host's owning switch, and
	// these aggregates cover remote reachability with O(prefixes-in-scope)
	// state per switch instead of O(hosts).
	Prefixes []TopoPrefix
}

// TopoSwitch describes one switch.
type TopoSwitch struct {
	Name string
	// TC enables the PTP transparent clock on this switch.
	TC bool
}

// TopoHost describes a host attachment. When External is true the slot is a
// detailed host simulated outside this network and reachable via an
// external port.
type TopoHost struct {
	Name     string
	IP       proto.IP
	Switch   int
	Rate     int64
	Delay    sim.Time
	External bool
	// Lazy marks a slot whose protocol-level host is not instantiated by
	// Build; Built.MaterializeSlot creates it on first use. Generators mark
	// the bulk of a 10⁴–10⁵-host fabric lazy so only workload participants
	// pay host-instantiation cost.
	Lazy bool
}

// TopoPrefix declares an aggregate route: every address inside Prefix
// attaches at (or behind) one of the listed switches. Build installs one
// prefix entry per switch with equal-cost candidates toward the nearest
// member (multi-source BFS), and an explicit blackhole on the members
// themselves so unknown addresses inside the aggregate die there instead
// of looping.
type TopoPrefix struct {
	Prefix   proto.Prefix
	Switches []int
	// Scope limits installation to the listed switches (members always get
	// their blackhole); nil installs on every switch. Generators scope leaf
	// aggregates to their pod so per-switch state stays O(pods), not
	// O(leaves).
	Scope []int
}

// TopoLink is a switch-to-switch link.
type TopoLink struct {
	A, B  int
	Rate  int64
	Delay sim.Time
}

// AddSwitch appends a switch and returns its index.
func (t *Topology) AddSwitch(name string) int {
	t.Switches = append(t.Switches, TopoSwitch{Name: name})
	return len(t.Switches) - 1
}

// AddHost appends a protocol-level host attached to switch sw.
func (t *Topology) AddHost(name string, ip proto.IP, sw int, rate int64, delay sim.Time) int {
	t.Hosts = append(t.Hosts, TopoHost{Name: name, IP: ip, Switch: sw, Rate: rate, Delay: delay})
	return len(t.Hosts) - 1
}

// AddLink appends a switch-to-switch link.
func (t *Topology) AddLink(a, b int, rate int64, delay sim.Time) int {
	t.Links = append(t.Links, TopoLink{A: a, B: b, Rate: rate, Delay: delay})
	return len(t.Links) - 1
}

// AddLazyHost appends a host slot that Build leaves uninstantiated until
// Built.MaterializeSlot is called for it.
func (t *Topology) AddLazyHost(name string, ip proto.IP, sw int, rate int64, delay sim.Time) int {
	t.Hosts = append(t.Hosts, TopoHost{Name: name, IP: ip, Switch: sw, Rate: rate, Delay: delay, Lazy: true})
	return len(t.Hosts) - 1
}

// AddAggregate appends an aggregate route whose addresses live at (or
// behind) the given switches, installed on every switch in scope (nil =
// all). It returns the aggregate's index.
func (t *Topology) AddAggregate(p proto.Prefix, switches []int, scope []int) int {
	if len(switches) == 0 {
		panic("netsim: aggregate " + p.String() + " has no member switches")
	}
	t.Prefixes = append(t.Prefixes, TopoPrefix{Prefix: p, Switches: switches, Scope: scope})
	return len(t.Prefixes) - 1
}

// Hierarchical reports whether Build will install aggregate (prefix)
// routes instead of global per-IP routes.
func (t *Topology) Hierarchical() bool { return len(t.Prefixes) > 0 }

// aggIndex answers "does any aggregate contain ip" in O(distinct prefix
// lengths): one masked-address set per length. The per-host coverage check
// used to scan the whole prefix list per host — at 10⁶ lazy slots over
// ~10³ aggregates that linear scan dominated the hierarchical build.
type aggIndex struct {
	lens  []uint8
	byLen map[uint8]map[proto.IP]struct{}
}

// aggregateIndex builds the coverage index over the declared prefixes.
func (t *Topology) aggregateIndex() *aggIndex {
	ix := &aggIndex{byLen: make(map[uint8]map[proto.IP]struct{})}
	for _, p := range t.Prefixes {
		m := ix.byLen[p.Prefix.Bits]
		if m == nil {
			m = make(map[proto.IP]struct{})
			ix.byLen[p.Prefix.Bits] = m
			ix.lens = append(ix.lens, p.Prefix.Bits)
		}
		m[p.Prefix.Addr.Masked(p.Prefix.Bits)] = struct{}{}
	}
	return ix
}

// covers reports whether any aggregate contains ip.
func (ix *aggIndex) covers(ip proto.IP) bool {
	for _, bits := range ix.lens {
		if _, ok := ix.byLen[bits][ip.Masked(bits)]; ok {
			return true
		}
	}
	return false
}

// UncoveredHost returns the first host slot whose address no aggregate
// contains when t is hierarchical (Build panics on one), or -1.
func (t *Topology) UncoveredHost() int {
	if !t.Hierarchical() {
		return -1
	}
	ix := t.aggregateIndex()
	return slices.IndexFunc(t.Hosts, func(h TopoHost) bool { return !ix.covers(h.IP) })
}

// Boundary is a cross-partition link whose two halves must be wired through
// a synchronized channel.
type Boundary struct {
	Link         int // index into Topology.Links
	PartA, PartB int
	PortA, PortB *ExtPort
}

// Build instantiates the topology, split into partitions according to
// assign (assign[switchIdx] = partition id, ids 0..max contiguous). Hosts
// follow their switch's partition. namer names each partition component;
// nil derives "name.pN". A nil or all-zero assign yields one network.
type Built struct {
	// Parts holds one Network per partition.
	Parts []*Network
	// Hosts maps host slot index to its protocol-level host (nil for
	// external slots).
	Hosts []*Host
	// HostPart maps host slot index to partition id.
	HostPart []int
	// Exts maps external host slot index to its attachment port.
	Exts map[int]*ExtPort
	// Switches maps topology switch index to the instantiated switch.
	Switches []*Switch
	// SwitchPart maps topology switch index to partition id.
	SwitchPart []int
	// Boundaries lists cross-partition links to be wired by decomp.
	Boundaries []Boundary

	// LinkIfaces maps each topology link to its transmitter interface
	// indices: LinkIfaces[li][0] is the iface index on switch Links[li].A,
	// [1] the index on Links[li].B. At partition boundaries these are the
	// external-port ifaces. It lets a path resolver walk Switch.Route
	// results across the whole link graph without chasing peer pointers
	// (which are nil at boundaries) — the flow-level tier depends on it.
	LinkIfaces [][2]int32

	// topo is the topology this Built instantiates; MaterializeSlot reads
	// lazy slots' parameters from it.
	topo *Topology

	// aggs indexes the aggregate prefixes by length so per-host coverage
	// checks are O(distinct lengths), not O(prefixes); nil in flat mode.
	aggs *aggIndex
}

// Topo returns the topology this Built instantiates.
func (b *Built) Topo() *Topology { return b.topo }

// MaterializeSlot instantiates lazy host slot i on first use: the host, its
// access link, and the direct route on the owning switch (remote
// reachability is already covered — by aggregates in hierarchical mode, by
// the per-IP routes Build installs regardless of laziness in flat mode).
// It is idempotent and must run before the simulation starts for the
// host's app to be started.
func (b *Built) MaterializeSlot(i int) *Host {
	if h := b.Hosts[i]; h != nil {
		return h
	}
	th := b.topo.Hosts[i]
	if !th.Lazy {
		panic(fmt.Sprintf("netsim: slot %d (%s) is not a lazy host", i, th.Name))
	}
	if b.topo.Hierarchical() && !b.aggs.covers(th.IP) {
		panic(fmt.Sprintf("netsim: lazy host %s (%v) is not covered by any aggregate", th.Name, th.IP))
	}
	net := b.Parts[b.HostPart[i]]
	sw := b.Switches[th.Switch]
	h := net.AddHost(th.Name, th.IP)
	fi := net.ConnectHostSwitch(h, sw, th.Rate, th.Delay)
	sw.SetRoute(th.IP, fi)
	b.Hosts[i] = h
	return h
}

// Build instantiates the topology across partitions.
func (t *Topology) Build(name string, seed uint64, assign []int, namer func(part int) string) *Built {
	if assign == nil {
		assign = make([]int, len(t.Switches))
	}
	if len(assign) != len(t.Switches) {
		panic("netsim: assign length != switch count")
	}
	nparts := 0
	for _, p := range assign {
		if p+1 > nparts {
			nparts = p + 1
		}
	}
	if namer == nil {
		namer = func(p int) string {
			if nparts == 1 {
				return name
			}
			return fmt.Sprintf("%s.p%d", name, p)
		}
	}

	b := &Built{
		Parts:      make([]*Network, nparts),
		Hosts:      make([]*Host, len(t.Hosts)),
		HostPart:   make([]int, len(t.Hosts)),
		Exts:       make(map[int]*ExtPort),
		Switches:   make([]*Switch, len(t.Switches)),
		SwitchPart: append([]int(nil), assign...),
		topo:       t,
	}
	for p := 0; p < nparts; p++ {
		b.Parts[p] = New(namer(p), seed)
	}
	for i, ts := range t.Switches {
		sw := b.Parts[assign[i]].AddSwitch(ts.Name)
		sw.TransparentClock = ts.TC
		b.Switches[i] = sw
	}
	t.sizeIfaces(b.Switches)

	// hostIface[i] = switch-local iface index serving host slot i
	// (-1 for lazy slots, whose access link does not exist yet).
	hostIface := make([]int, len(t.Hosts))
	for i, th := range t.Hosts {
		part := assign[th.Switch]
		b.HostPart[i] = part
		net := b.Parts[part]
		sw := b.Switches[th.Switch]
		if th.Lazy {
			hostIface[i] = -1
			continue
		}
		if th.External {
			p := net.AddExternal(sw, th.Name, th.Rate, th.IP)
			b.Exts[i] = p
			hostIface[i] = switchIfaceIndex(sw, p.iface)
			continue
		}
		h := net.AddHost(th.Name, th.IP)
		hostIface[i] = net.ConnectHostSwitch(h, sw, th.Rate, th.Delay)
		b.Hosts[i] = h
	}

	b.LinkIfaces = make([][2]int32, len(t.Links))
	for li, l := range t.Links {
		pa, pb := assign[l.A], assign[l.B]
		sa, sb := b.Switches[l.A], b.Switches[l.B]
		if pa == pb {
			ai, bi := b.Parts[pa].ConnectSwitches(sa, sb, l.Rate, l.Delay)
			b.LinkIfaces[li] = [2]int32{int32(ai), int32(bi)}
			continue
		}
		ea := b.Parts[pa].AddExternal(sa, fmt.Sprintf("x%d.a", li), l.Rate)
		eb := b.Parts[pb].AddExternal(sb, fmt.Sprintf("x%d.b", li), l.Rate)
		b.LinkIfaces[li] = [2]int32{
			int32(switchIfaceIndex(sa, ea.iface)), int32(switchIfaceIndex(sb, eb.iface))}
		b.Boundaries = append(b.Boundaries, Boundary{Link: li, PartA: pa, PartB: pb, PortA: ea, PortB: eb})
	}

	if nparts > 1 {
		for _, p := range b.Parts {
			p.partitionRouted = true
		}
	}
	if t.Hierarchical() {
		for _, p := range b.Parts {
			p.prefixRouted = true
		}
		b.aggs = t.aggregateIndex()
	}

	t.installGlobalRoutes(b, hostIface, func(li int) (int, int) {
		p := b.LinkIfaces[li]
		return int(p[0]), int(p[1])
	})
	for _, sw := range b.Switches {
		sw.compile()
	}
	return b
}

// rows returns one empty slice per count with room for exactly that many
// elements, all cut from one array: appends within a row never regrow it,
// and an append past it moves that row out instead of into its neighbour.
func rows[T any](counts []int) [][]T {
	total := 0
	for _, k := range counts {
		total += k
	}
	all, out := make([]T, total), make([][]T, len(counts))
	for i, k := range counts {
		out[i], all = all[:0:k], all[k:]
	}
	return out
}

// degrees returns each switch's number of link ends.
func (t *Topology) degrees() []int {
	deg := make([]int, len(t.Switches))
	for _, l := range t.Links {
		deg[l.A]++
		deg[l.B]++
	}
	return deg
}

// sizeIfaces gives every switch an empty interface list with room for the
// interfaces Build attaches to it, one per link end and per host slot that
// is not lazy, so connecting never regrows a list. A lazy slot materialized
// later appends past it and moves that switch's list out.
func (t *Topology) sizeIfaces(switches []*Switch) {
	n := t.degrees()
	for _, th := range t.Hosts {
		if !th.Lazy {
			n[th.Switch]++
		}
	}
	for i, r := range rows[*Iface](n) {
		switches[i].ifaces = r
	}
}

// switchIfaceIndex returns the index of f among sw's interfaces. A missing
// interface is a wiring bug — Build used to fall back silently to iface 0
// here, turning it into misrouting — so it panics instead.
func switchIfaceIndex(sw *Switch, f *Iface) int {
	for fi, g := range sw.ifaces {
		if g == f {
			return fi
		}
	}
	panic(fmt.Sprintf("netsim: interface not found on switch %s", sw.name))
}

// topoBFS holds the reusable breadth-first-search state for route
// installation: one dist array, one index-cursor queue (the old
// `queue = queue[1:]` pop retained the whole backing array per target and
// reallocated per destination), and one candidate buffer, shared across
// every destination so generator-scale route computation does not thrash
// the allocator.
type topoBFS struct {
	adj   [][]topoEdge
	dist  []int
	queue []int
	cands []int
	// seen[v] == epoch marks dist[v] as valid for the current search.
	// Stamping replaces the old full dist clear per search — a scoped
	// search that pops a handful of switches no longer pays O(switches)
	// to reset, which is what made per-leaf aggregates affordable on
	// 10⁶-endpoint fabrics.
	seen  []uint32
	epoch uint32
}

// newTopoBFS returns empty search state over ns switches. Each switch
// enters the queue at most once per search, so dist, the queue and the
// candidate buffer share one backing array (an append past a part's
// capacity moves that part out).
func newTopoBFS(ns int) *topoBFS {
	buf := make([]int, 2*ns+8)
	return &topoBFS{
		adj:   make([][]topoEdge, ns),
		dist:  buf[:ns:ns],
		queue: buf[ns : ns : 2*ns],
		cands: buf[2*ns : 2*ns],
		seen:  make([]uint32, ns),
	}
}

type topoEdge struct {
	nb    int
	iface int // local iface index on this switch for this link
}

// run fills dist from the seed set (multi-source, all seeds at distance 0).
// When need is non-nil, the search stops as soon as the needCount marked
// switches have been popped — by then every popped switch's shortest-path
// predecessors have final distances, which is all candidates() reads.
func (s *topoBFS) run(seeds []int, need []bool, needCount int) {
	s.epoch++
	if s.epoch == 0 { // stamp wrap: clear once per 2³² searches
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	for _, sd := range seeds {
		if s.seen[sd] == s.epoch {
			continue // duplicate seed
		}
		s.seen[sd] = s.epoch
		s.dist[sd] = 0
		s.queue = append(s.queue, sd)
	}
	remaining := needCount
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		if need != nil && need[u] {
			if remaining--; remaining == 0 {
				return
			}
		}
		for _, e := range s.adj[u] {
			if s.seen[e.nb] != s.epoch {
				s.seen[e.nb] = s.epoch
				s.dist[e.nb] = s.dist[u] + 1
				s.queue = append(s.queue, e.nb)
			}
		}
	}
}

// distOf returns the last run's distance of v from the seed set, or -1
// when the search never reached v.
func (s *topoBFS) distOf(v int) int {
	if s.seen[v] != s.epoch {
		return -1
	}
	return s.dist[v]
}

// candidates returns the ifaces on v that start a shortest path toward the
// last run's seed set, in adjacency order (the deterministic ECMP
// candidate order). The returned slice aliases the reusable buffer.
func (s *topoBFS) candidates(v int) []int {
	s.cands = s.cands[:0]
	for _, e := range s.adj[v] {
		if s.seen[e.nb] == s.epoch && s.dist[e.nb] == s.dist[v]-1 {
			s.cands = append(s.cands, e.iface)
		}
	}
	return s.cands
}

// installGlobalRoutes computes shortest paths on the whole topology and
// installs next hops on every switch in every partition. Equal-cost paths
// are spread per destination address (deterministic hash), the static
// analog of ECMP — essential for fat trees, whose capacity lives in the
// multiplicity of core paths.
//
// Without aggregates, every switch gets a per-IP route for every host
// (including lazy slots — only the owning switch's direct route waits for
// MaterializeSlot). BFS state is computed per destination *switch* and
// streamed — hosts sharing a switch share one search — instead of holding
// the all-pairs next-hop matrix, so route installation is O(S·E) time and
// O(S) transient memory.
//
// With aggregates (hierarchical mode), per-IP routes exist only on each
// host's owning switch; each TopoPrefix gets a multi-source BFS from its
// member switches and one prefix entry per switch in scope, keeping
// per-switch state proportional to the number of visible aggregates.
func (t *Topology) installGlobalRoutes(b *Built, hostIface []int, linkIfaces func(li int) (aIface, bIface int)) {
	ns := len(t.Switches)
	bfs := newTopoBFS(ns)
	bfs.adj = rows[topoEdge](t.degrees()) // sized: the appends below never regrow
	for li, l := range t.Links {
		ai, bi := linkIfaces(li)
		bfs.adj[l.A] = append(bfs.adj[l.A], topoEdge{nb: l.B, iface: ai})
		bfs.adj[l.B] = append(bfs.adj[l.B], topoEdge{nb: l.A, iface: bi})
	}

	if !t.Hierarchical() {
		dests := make([][]flatDest, ns)
		for hi, th := range t.Hosts {
			dests[th.Switch] = append(dests[th.Switch], flatDest{ip: th.IP, iface: int32(hostIface[hi])})
		}
		installFlatRoutes(b.Switches, bfs, dests)
		return
	}

	// Hierarchical mode. Size every switch's rule list first: one rule per
	// direct host route and per aggregate it is in scope of or a member of.
	routes := make([]int, ns)
	for hi, th := range t.Hosts {
		if hostIface[hi] >= 0 {
			routes[th.Switch]++
		}
	}
	for _, p := range t.Prefixes {
		if p.Scope == nil {
			for v := range routes {
				routes[v]++
			}
			continue
		}
		for _, v := range p.Scope {
			routes[v]++
		}
		for _, v := range p.Switches {
			routes[v]++
		}
	}
	reserveRouteLists(b.Switches, routes)

	// Direct routes on each owning switch (lazy slots get theirs at
	// MaterializeSlot), with a loud coverage check: a host address no
	// aggregate contains would be silently unreachable remotely.
	for hi, th := range t.Hosts {
		if !b.aggs.covers(th.IP) {
			panic(fmt.Sprintf("netsim: hierarchical build: host %s (%v) is not covered by any aggregate",
				th.Name, th.IP))
		}
		if hostIface[hi] >= 0 {
			b.Switches[th.Switch].SetRoute(th.IP, hostIface[hi])
		}
	}

	need := make([]bool, ns)
	marked := make([]int, 0, ns)
	for _, p := range t.Prefixes {
		var needCount int
		if p.Scope != nil {
			mark := func(si int) {
				if !need[si] {
					need[si] = true
					marked = append(marked, si)
					needCount++
				}
			}
			for _, si := range p.Scope {
				mark(si)
			}
			for _, si := range p.Switches {
				mark(si)
			}
			bfs.run(p.Switches, need, needCount)
		} else {
			bfs.run(p.Switches, nil, 0)
		}

		install := func(v int) {
			switch d := bfs.distOf(v); {
			case d < 0:
				// Unreachable from the aggregate's members — a partition
				// that genuinely cannot see them; leave no entry.
			case d == 0:
				// Member switch: unknown addresses inside the aggregate die
				// here rather than bouncing off a shorter prefix.
				b.Switches[v].SetPrefixRoute(p.Prefix)
			default:
				b.Switches[v].SetPrefixRoute(p.Prefix, bfs.candidates(v)...)
			}
		}
		if p.Scope != nil {
			for _, v := range p.Scope {
				install(v)
			}
			for _, v := range p.Switches {
				install(v) // members outside the scope still blackhole
			}
			for _, si := range marked {
				need[si] = false
			}
			marked = marked[:0]
		} else {
			for v := 0; v < ns; v++ {
				install(v)
			}
		}
	}
}

// flatDest is one per-IP route destination: an address and the iface on
// its owning switch that serves it (-1 for a lazy slot, whose direct route
// waits for MaterializeSlot).
type flatDest struct {
	ip    proto.IP
	iface int32
}

// installFlatRoutes is the classic per-IP mode Topology.Build and
// Network.ComputeRoutes share. dests[v] lists the destinations switch v
// owns; each owning switch gets one BFS over bfs's adjacency, streamed, and
// every other reachable switch spreads the destinations over its
// equal-cost candidates by ecmpHash. The ECMP candidate order is the
// adjacency order, which each caller fixes.
func installFlatRoutes(switches []*Switch, bfs *topoBFS, dests [][]flatDest) {
	total := 0
	for _, ds := range dests {
		total += len(ds)
	}
	for _, sw := range switches {
		sw.reserveRoutes(total)
	}
	for tgt, ds := range dests {
		if len(ds) == 0 {
			continue
		}
		bfs.run([]int{tgt}, nil, 0)
		for _, d := range ds {
			if d.iface >= 0 {
				switches[tgt].SetRoute(d.ip, int(d.iface))
			}
		}
		for v, sw := range switches {
			if v == tgt || bfs.distOf(v) < 0 {
				continue
			}
			cands := bfs.candidates(v)
			if len(cands) == 0 {
				continue
			}
			for _, d := range ds {
				sw.SetRoute(d.ip, cands[ecmpHash(d.ip)%uint64(len(cands))])
			}
		}
	}
}
