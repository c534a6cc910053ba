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
	bfs := newTopoBFS(ns)
	for i, s := range n.switches {
		for fi, f := range s.ifaces {
			if f.peer == nil {
				continue
			}
			if ps, ok := f.peer.owner.(*Switch); ok {
				bfs.adj[i] = append(bfs.adj[i], topoEdge{nb: idx[ps], iface: fi})
			}
		}
	}

	install := func(attached *Switch, directIface int, ips []proto.IP) {
		ti := idx[attached]
		bfs.run([]int{ti}, nil, 0)
		for si, s := range n.switches {
			if si == ti {
				for _, ip := range ips {
					s.SetRoute(ip, directIface)
				}
				continue
			}
			if bfs.distOf(si) < 0 {
				continue
			}
			cands := bfs.candidates(si)
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
