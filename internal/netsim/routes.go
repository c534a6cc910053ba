package netsim

import "repro/internal/proto"

// ComputeRoutes installs shortest-path routes on every switch for every
// host and external-port address in this network. Paths are computed with
// BFS over the switch graph; equal-cost next hops are spread per
// destination address with the same deterministic hash Topology.Build
// uses (static ECMP), so a hand-wired network forwards identically to the
// same fabric built through a Topology.
//
// ComputeRoutes panics on a network produced as one partition of a
// multi-partition Topology.Build, or one carrying aggregate (prefix)
// routes: those tables encode global reachability this local computation
// cannot reconstruct, and rewriting them used to silently collapse ECMP
// to single-path and strand cross-partition destinations.
func (n *Network) ComputeRoutes() {
	if n.partitionRouted {
		panic("netsim: ComputeRoutes on a partition of a multi-partition topology; " +
			"routes were installed globally by Topology.Build and must not be rewritten locally")
	}
	if n.prefixRouted {
		panic("netsim: ComputeRoutes on a prefix-routed network; " +
			"aggregate routes were installed by Topology.Build and must not be rewritten locally")
	}
	ns := len(n.switches)
	idx := make(map[*Switch]int, ns)
	for i, s := range n.switches {
		idx[s] = i
	}
	type edge struct {
		nb    int // neighbor switch index
		iface int // local iface index
	}
	adj := make([][]edge, ns)
	for i, s := range n.switches {
		for fi, f := range s.ifaces {
			if f.peer == nil {
				continue
			}
			if ps, ok := f.peer.owner.(*Switch); ok {
				adj[i] = append(adj[i], edge{nb: idx[ps], iface: fi})
			}
		}
	}

	// Reusable BFS state: one distance array and an index-cursor queue
	// (popping with queue[1:] kept the whole backing array live and
	// reallocated it per destination).
	dist := make([]int, ns)
	queue := make([]int, 0, ns)
	cands := make([]int, 0, 8)

	install := func(attached *Switch, directIface int, ips []proto.IP) {
		ti := idx[attached]
		for i := range dist {
			dist[i] = -1
		}
		dist[ti] = 0
		queue = append(queue[:0], ti)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, e := range adj[u] {
				if dist[e.nb] < 0 {
					dist[e.nb] = dist[u] + 1
					queue = append(queue, e.nb)
				}
			}
		}
		for si, s := range n.switches {
			if si == ti {
				for _, ip := range ips {
					s.SetRoute(ip, directIface)
				}
				continue
			}
			if dist[si] < 0 {
				continue
			}
			cands = cands[:0]
			for _, e := range adj[si] {
				if dist[e.nb] == dist[si]-1 {
					cands = append(cands, e.iface)
				}
			}
			for _, ip := range ips {
				s.SetRoute(ip, cands[ecmpHash(ip)%uint64(len(cands))])
			}
		}
	}

	routes := len(n.hosts)
	for _, p := range n.exts {
		routes += len(p.ips)
	}
	for _, s := range n.switches {
		s.reserveRoutes(routes)
	}
	for _, h := range n.hosts {
		sw, fi := n.attachment(h.iface)
		install(sw, fi, []proto.IP{h.ip})
	}
	for _, p := range n.exts {
		install(p.sw, switchIfaceIndex(p.sw, p.iface), p.ips)
	}
	for _, s := range n.switches {
		s.compile()
	}
}

// attachment finds the switch and iface index a host interface peers with.
func (n *Network) attachment(hostIface *Iface) (*Switch, int) {
	if hostIface == nil || hostIface.peer == nil {
		panic("netsim: host not attached to a switch")
	}
	sw, ok := hostIface.peer.owner.(*Switch)
	if !ok {
		panic("netsim: host attached to non-switch")
	}
	return sw, switchIfaceIndex(sw, hostIface.peer)
}
