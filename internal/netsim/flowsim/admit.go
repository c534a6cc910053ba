package flowsim

import (
	"slices"

	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// admitChunk is how many due arrivals step draws, resolves and attaches at
// a time. Larger chunks put more flows on each switch per hop level (fewer
// cold route tables) but keep more drawn flows and scratch live at once. On
// the 10⁶-slot mixed_1m fabric (2-vCPU guest), 4,096 ran 12% slower than
// 16,384, and 65,536 raised peak RSS 7% for 3% less wall time.
const admitChunk = 1 << 14

// walk is one flow's state while resolveBatch walks its path; it holds no
// pointers, so the scratch keeps no flow alive.
type walk struct {
	ip               proto.IP // destination address
	dst              int32    // destination switch
	srcSlot, dstSlot int32
	nsw              int32    // switches visited so far, 0 once a hop fails
	nlinks           int32    // finite-capacity links on the path so far
	lastWire         int32    // wire bytes of the flow's last packet
	srcRate, dstRate int64    // access link capacities, 0 = unconstrained
	delay            sim.Time // propagation plus the last packet's store-and-forward fill
}

// hopLink is one fabric link a walk crossed; a batch's hopLinks are in
// hop-level order, so each walk's are in path order.
type hopLink struct {
	w  int32
	bl *blink
}

// batch is resolveBatch's scratch, grow-only up to one chunk.
type batch struct {
	walks   []walk
	live    []uint64 // current switch << 32 | walk index, one per walk en route
	crossed []hopLink
}

// resolveBatch resolves every flow in fs with the same Switch.Route
// lookups the packet tier makes (so ECMP choices, and therefore which
// links carry the load, match exactly). It sets each routable flow's
// links (finite-capacity directed links in path order, in the flow's own
// array when it has room, else cut from the replica's link slab), hops
// and baseDelay: propagation, switch pipeline latency and the
// store-and-forward fill of the last packet across every link after the
// first. A flow that does not route keeps hops 0.
//
// The walk is switch-major: every hop level, the flows still en route are
// sorted by their current switch and advanced one hop, so each switch's
// route table, hops row and links are loaded once per level, not once per
// flow. No scratch is sized by the fabric.
func (r *replica) resolveBatch(fs []*flow) {
	eng := r.eng
	bt := &r.batch
	walks := slices.Grow(bt.walks[:0], len(fs))[:len(fs)]
	live := bt.live[:0]
	crossed := bt.crossed[:0]
	for i, f := range fs {
		srcSlot, dstSlot := eng.endpoints[f.src], eng.endpoints[f.dst]
		src, dst := &eng.topo.Hosts[srcSlot], &eng.topo.Hosts[dstSlot]
		w := &walks[i]
		*w = walk{
			ip: dst.IP, dst: int32(dst.Switch),
			srcSlot: int32(srcSlot), dstSlot: int32(dstSlot),
			nsw: 1, lastWire: int32(lastPktWire(f.bytes)),
			srcRate: src.Rate, dstRate: dst.Rate,
			delay: src.Delay + dst.Delay,
		}
		if w.srcRate > 0 {
			w.nlinks++
		}
		if w.dstRate > 0 {
			w.nlinks++
			w.delay += sim.TransmitTime(int(w.lastWire), w.dstRate)
		}
		f.hops = 0
		if src.Switch != dst.Switch {
			live = append(live, uint64(src.Switch)<<32|uint64(i))
		}
	}

	for len(live) > 0 {
		if len(live) > 1 { // slices.Sort has a fixed cost even for one key
			slices.Sort(live) // by switch, then arrival: the key's high, then low half
		}
		n, cur := 0, -1
		var sw *netsim.Switch
		var row []hop
		for _, k := range live {
			if int(k>>32) != cur { // the first walk at this switch: load it once
				cur = int(k >> 32)
				sw, row = eng.b.Switches[cur], eng.hops[cur]
			}
			wi := int32(k)
			w := &walks[wi]
			out, ok := sw.Route(w.ip)
			if !ok || uint(out) >= uint(len(row)) || row[out].li < 0 {
				w.nsw = 0 // no route, or routed into an attachment port
				continue
			}
			hp := row[out]
			l := &eng.topo.Links[hp.li]
			if l.Rate > 0 {
				crossed = append(crossed, hopLink{wi, r.topoLink(hp.li, hp.dir, l.Rate)})
				w.nlinks++
				w.delay += sim.TransmitTime(int(w.lastWire), l.Rate)
			}
			w.delay += l.Delay
			if w.nsw++; w.nsw > maxHops {
				w.nsw = 0
			} else if hp.next != w.dst {
				live[n] = uint64(hp.next)<<32 | uint64(wi) // n trails the range, so k was read
				n++
			}
		}
		live = live[:n]
	}

	// Fill each routable flow's links: source access first, destination
	// access last, the fabric hops (below) in between, with nlinks reused
	// as the index the next hop goes to.
	for i := range walks {
		w := &walks[i]
		if w.nsw == 0 {
			continue
		}
		f, n := fs[i], int(w.nlinks)
		r.linksFor(f, n)
		w.nlinks = 0
		if w.srcRate > 0 {
			f.links[0] = r.accessLink(w.srcSlot, dirFwd, w.srcRate)
			w.nlinks++
		}
		if w.dstRate > 0 {
			f.links[n-1] = r.accessLink(w.dstSlot, dirRev, w.dstRate)
		}
		f.hops = w.nsw
		f.baseDelay = w.delay + sim.Time(w.nsw)*eng.switchLatency
	}
	for _, s := range crossed {
		if w := &walks[s.w]; w.nsw > 0 {
			fs[s.w].links[w.nlinks] = s.bl
			w.nlinks++
		}
	}
	bt.walks, bt.live, bt.crossed = walks, live, crossed
}
