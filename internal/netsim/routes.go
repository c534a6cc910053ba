package netsim

// ComputeRoutes installs shortest-path routes on every switch for every
// host and external-port address in this network. It builds the switch
// graph from each switch's interface order and hands it to the per-IP
// install routine a flat Topology.Build uses — one BFS per destination
// switch, equal-cost next hops spread per destination address (static
// ECMP) — so a hand-wired network forwards identically to the same fabric
// built through a Topology.
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

	dests := make([][]flatDest, ns)
	for _, h := range n.hosts {
		sw, fi := n.attachment(h.iface)
		dests[idx[sw]] = append(dests[idx[sw]], flatDest{ip: h.ip, iface: int32(fi)})
	}
	for _, p := range n.exts {
		fi := int32(switchIfaceIndex(p.sw, p.iface))
		for _, ip := range p.ips {
			dests[idx[p.sw]] = append(dests[idx[p.sw]], flatDest{ip: ip, iface: fi})
		}
	}
	installFlatRoutes(n.switches, bfs, dests)
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
