package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Dataplane is the programmable-switch hook: it sees every frame before
// forwarding and may consume it, mutate it, or inject new frames (via
// Switch.Inject). The NetCache and Pegasus in-network dataplanes and test
// fixtures implement it.
type Dataplane interface {
	// Process handles a frame arriving on in. Returning false consumes the
	// frame (the switch does not forward it).
	Process(sw *Switch, in *Iface, f *proto.Frame) (forward bool)
}

// flowCacheSize is the number of direct-mapped flow-cache entries per
// switch, indexed by flowSlot; sized for the handful of hot destinations a
// switch port typically serves between topology changes.
const (
	flowCacheBits = 3
	flowCacheSize = 1 << flowCacheBits
)

// flowEntry is one flow-cache slot: the last next-hop resolved for ip.
type flowEntry struct {
	ip  proto.IP
	out int32
	ok  bool
}

// Switch is an output-queued IP switch with static longest-prefix-match
// routes (per-IP routes and CIDR aggregates in one compiled table), an
// optional programmable dataplane, and optional PTP transparent-clock
// support.
type Switch struct {
	net    *Network
	name   string
	ifaces []*Iface

	// Routing state. rules is the install log: SetRoute and SetPrefixRoute
	// append to it, and compile sorts it, keeps the last install of each
	// prefix and sweeps the nested prefixes into a table of disjoint
	// intervals — interval i covers [starts[i], starts[i+1]) and resolves
	// through rule acts[i], or nowhere when acts[i] < 0 (no covering rule,
	// or a blackhole as the innermost one). cands is the pool of equal-cost
	// next hops the rules index. dirty marks installs the table does not
	// reflect yet.
	rules  []routeRule
	cands  []int32
	starts []uint32
	acts   []int32
	dirty  bool

	// fcache short-circuits the route table on the forwarding hot path. It
	// is a pure cache over the table — lookups through it are
	// behavior-identical — and every topology or route mutation clears it.
	fcache [flowCacheSize]flowEntry

	// Dataplane, when non-nil, processes every received frame. Set it
	// before the network attaches: Attach decides which hops cut through.
	Dataplane Dataplane

	// TransparentClock makes the switch add per-packet residence time to
	// the correction field of PTP event messages, as IEEE 1588 transparent
	// clocks do. The clock-synchronization case study extends switches
	// with this, mirroring the paper's ns-3 extension.
	TransparentClock bool

	// RxPackets counts frames entering the switch.
	RxPackets uint64
	// NoRoute counts frames dropped for want of a route.
	NoRoute uint64
	// FlowCacheHits counts forwarding decisions served from fcache.
	FlowCacheHits uint64

	// cutSink runs a frame's link arrival and pipeline step as one event.
	cutSink switchCutSink
}

// switchCutSink is the cut-through hop into a switch without a Dataplane:
// the sender posts it at departure + propagation + SwitchLatency (an
// ExtPort, whose channel delivers lagged by SwitchLatency, calls it at the
// same instant), and it does what the link arrival (receive) and the
// pipeline step (enqSink) would have done at their own instants — the
// arrival's counter and route lookup have no effect the pipeline step could
// observe.
type switchCutSink struct{ s *Switch }

// Deliver implements core.Sink. at is the pipeline-exit instant, as in
// ifaceEnqSink.Deliver.
func (k *switchCutSink) Deliver(at sim.Time, m sim.Payload) {
	s := k.s
	f := m.(*proto.Frame)
	s.RxPackets++
	out, ok := s.lookup(f.IP.Dst)
	if !ok {
		s.NoRoute++
		f.Release()
		return
	}
	s.ifaces[out].enqSink.Deliver(at, f)
}

// Discard implements sim.Discarder. A frame that reached the switch before
// the run stopped was counted on arrival by the two-event hop, so it is
// counted here — through Route, since the flow cache is not state a
// stopped run should touch.
func (k *switchCutSink) Discard(at sim.Time, m sim.Payload) {
	s := k.s
	if at-s.net.SwitchLatency < s.net.env.Now() {
		s.countStopped(m.(*proto.Frame).IP.Dst)
	}
}

// countStopped counts a frame to dst that entered the switch before the run
// stopped and was still in its pipeline.
func (s *Switch) countStopped(dst proto.IP) {
	s.RxPackets++
	if _, ok := s.Route(dst); !ok {
		s.NoRoute++
	}
}

// Ifaces returns the switch's interfaces in attachment order.
func (s *Switch) Ifaces() []*Iface { return s.ifaces }

// SetRoute installs iface index out as the next hop for ip. A per-IP route
// outranks every aggregate containing ip, a /32 included; installing ip
// again replaces the earlier route.
func (s *Switch) SetRoute(ip proto.IP, out int) {
	if out < 0 || out >= len(s.ifaces) {
		panic(fmt.Sprintf("netsim: %s: route to %v via invalid iface %d", s.name, ip, out))
	}
	s.cands = append(s.cands, int32(out))
	s.addRule(ip, perIPBits, 1)
}

// SetPrefixRoute installs equal-cost next-hop candidates for a CIDR
// aggregate. A packet whose longest match is this prefix picks one
// candidate by the deterministic per-destination hash (static ECMP, the
// same rule Topology.Build applies to per-IP routes). No candidates means
// an explicit blackhole: addresses inside the prefix with no longer match
// are dropped here instead of looping through shorter aggregates.
// Installing the same prefix again replaces the earlier candidates.
func (s *Switch) SetPrefixRoute(p proto.Prefix, outs ...int) {
	if p.Bits > 32 {
		panic(fmt.Sprintf("netsim: %s: prefix route %v is longer than 32 bits", s.name, p))
	}
	if len(outs) > math.MaxUint16 {
		panic(fmt.Sprintf("netsim: %s: prefix route %v has %d next hops, more than a rule holds", s.name, p, len(outs)))
	}
	for _, out := range outs {
		if out < 0 || out >= len(s.ifaces) {
			panic(fmt.Sprintf("netsim: %s: prefix route %v via invalid iface %d", s.name, p, out))
		}
		s.cands = append(s.cands, int32(out))
	}
	s.addRule(p.Addr.Masked(p.Bits), p.Bits, len(outs))
}

// routeRule is one installed route: the addresses addr/bits and their
// equal-cost next hops, the pool entries [off, off+n). n == 0 is an
// explicit blackhole. Per-IP routes are rules of perIPBits.
type routeRule struct {
	addr proto.IP
	off  uint32
	n    uint16
	bits uint8
}

// perIPBits is the length of a per-IP rule: one more than any prefix, so
// the longest match prefers it to a /32 aggregate on the same address.
const perIPBits = 33

// ruleBytes is the resident size of one routeRule.
const ruleBytes = int(unsafe.Sizeof(routeRule{}))

// last returns the last address the rule covers.
func (r *routeRule) last() uint64 {
	if r.bits >= 32 {
		return uint64(r.addr)
	}
	return uint64(r.addr) | (1<<(32-r.bits) - 1)
}

// addRule appends a rule whose candidates are the last n pool entries.
func (s *Switch) addRule(addr proto.IP, bits uint8, n int) {
	var off uint32
	s.cands, off = shareTail(s.cands, n)
	s.rules = append(s.rules, routeRule{addr: addr, off: off, n: uint16(n), bits: bits})
	s.dirty = true
	s.invalidateFlowCache()
}

// shareTail returns the offset of the n candidates just appended to pool.
// When the n entries before them are the same set, the new copy is dropped
// and the earlier one shared: consecutive rules often name the same next
// hops (a leaf's pod aggregates all point at its uplinks).
func shareTail(pool []int32, n int) ([]int32, uint32) {
	off := len(pool) - n
	if n > 0 && off >= n && slices.Equal(pool[off-n:off], pool[off:]) {
		return pool[:off], uint32(off - n)
	}
	return pool, uint32(off)
}

// reserveRoutes makes room for n more single-candidate routes, so a build
// that knows its route count installs them without regrowing.
func (s *Switch) reserveRoutes(n int) {
	s.rules = slices.Grow(s.rules, n)
	s.cands = slices.Grow(s.cands, n)
}

// reserveRouteLists is reserveRoutes for switches that hold no route yet,
// with n[v] routes for switch v: every rule list is cut from one array, and
// every candidate pool from another.
func reserveRouteLists(switches []*Switch, n []int) {
	rules, cands := rows[routeRule](n), rows[int32](n)
	for v, s := range switches {
		s.rules, s.cands = rules[v], cands[v]
	}
}

// routeScratch is the reusable working memory of Switch.compile, one per
// Network: a compile builds into it and copies the result out at its exact
// size, into the network's table slabs.
type routeScratch struct {
	cands  []int32
	starts []uint32
	acts   []int32
	open   []int32
}

// compile rebuilds the interval table from the rule list. Rules are sorted
// by (addr, bits) — stable, so of two installs of one prefix the later one
// is kept, as a map overwrite would — and swept with a stack of the rules
// open at the current address: prefixes either nest or are disjoint, so the
// top of the stack is the longest match, and a blackhole on top answers "no
// route" without falling back to the rules beneath it.
func (s *Switch) compile() {
	sc := &s.net.rscratch
	rules := s.rules
	slices.SortStableFunc(rules, func(a, b routeRule) int {
		if a.addr != b.addr {
			return cmp.Compare(a.addr, b.addr)
		}
		return cmp.Compare(a.bits, b.bits)
	})
	pool := sc.cands[:0]
	kept := rules[:0]
	for i, r := range rules {
		if i+1 < len(rules) && rules[i+1].addr == r.addr && rules[i+1].bits == r.bits {
			continue // replaced by a later install
		}
		pool = append(pool, s.cands[r.off:r.off+uint32(r.n)]...)
		pool, r.off = shareTail(pool, int(r.n))
		kept = append(kept, r)
	}

	starts, acts, open := sc.starts[:0], sc.acts[:0], sc.open[:0]
	var at uint64 // first address not yet in the table
	// emit starts an interval at `at` resolving through rule a, unless the
	// previous interval resolves identically: no route either way, or the
	// same shared candidate run (a leaf's pod aggregates become one
	// interval).
	emit := func(a int32) {
		if a >= 0 && kept[a].n == 0 {
			a = -1 // a blackhole resolves like no route
		}
		if k := len(acts); k > 0 {
			p := acts[k-1]
			if p == a || p >= 0 && a >= 0 && kept[p].off == kept[a].off && kept[p].n == kept[a].n {
				return
			}
		}
		starts = append(starts, uint32(at))
		acts = append(acts, a)
	}
	top := func() int32 {
		if len(open) == 0 {
			return -1
		}
		return open[len(open)-1]
	}
	// closeBefore pops the open rules that end before addr, emitting the
	// addresses each still owns above its inner rules.
	closeBefore := func(addr uint64) {
		for len(open) > 0 {
			end := kept[top()].last()
			if end >= addr {
				return
			}
			if at <= end {
				emit(top())
				at = end + 1
			}
			open = open[:len(open)-1]
		}
	}
	for i := range kept {
		lo := uint64(kept[i].addr)
		closeBefore(lo)
		if at < lo {
			emit(top())
			at = lo
		}
		open = append(open, int32(i))
	}
	closeBefore(1 << 32)
	if at <= math.MaxUint32 {
		emit(-1)
	}

	// Drop append's growth slack; an allocator size class rounds up by
	// less than an eighth, so a list sized up front is kept as it is.
	if cap(kept)-len(kept) > len(kept)/8 {
		kept = slices.Clone(kept)
	}
	s.rules = kept
	// Each list is capped at its length, so a later install appends a copy
	// of the pool instead of writing over the actions beside it.
	tab := s.net.rtab.Cut(len(pool) + len(acts))
	copy(tab, pool)
	copy(tab[len(pool):], acts)
	s.cands, s.acts = tab[:len(pool):len(pool)], tab[len(pool):]
	s.starts = s.net.rstarts.Cut(len(starts))
	copy(s.starts, starts)
	sc.cands, sc.starts, sc.acts, sc.open = pool, starts, acts, open
	s.dirty = false
}

// ecmpHash is the per-destination spreading hash shared by every equal-cost
// choice in the simulator (the per-IP install flat builds and ComputeRoutes
// share, and prefix routes), so any of them installed for the same
// candidate set forwards identically.
func ecmpHash(ip proto.IP) uint64 {
	return uint64(ip) * 0x9e3779b97f4a7c15 >> 32
}

// Route returns the next-hop interface index of ip's longest match —
// without touching the flow cache or hit counters. The second result is
// false for unroutable addresses and blackholed aggregates. The first
// lookup after a route install compiles the table.
func (s *Switch) Route(ip proto.IP) (int, bool) {
	if s.dirty {
		s.compile()
	}
	starts := s.starts
	if len(starts) == 0 {
		return 0, false // no routes installed
	}
	// Find the last interval starting at or below ip (starts[0] is 0). The
	// step is arithmetic, not a branch: random destinations would
	// mispredict half of a textbook binary search's comparisons.
	i, x := 0, int64(ip)
	for n := len(starts); n > 1; n -= n >> 1 {
		half := n >> 1
		below := x - int64(starts[i+half]) // < 0: ip is below that start
		i += half &^ int(below>>63)
	}
	a := s.acts[i]
	if a < 0 {
		return 0, false
	}
	r := &s.rules[a]
	// ecmpHash is below 2³², so the 32-bit remainder is the same and cheaper.
	return int(s.cands[r.off+uint32(ecmpHash(ip))%uint32(r.n)]), true
}

// flowSlot is ip's flow-cache slot: the top bits of a multiplicative
// (Fibonacci) hash. The low address bits are a poor index — on a Clos whose
// materialised hosts all sit at index 0 of their leaf, every destination
// ends in the same three bits.
func flowSlot(ip proto.IP) uint32 {
	return (uint32(ip) * 0x9e3779b1) >> (32 - flowCacheBits)
}

// lookup resolves the next hop for ip through the flow cache, falling back
// to (and refilling from) the route table on a miss.
func (s *Switch) lookup(ip proto.IP) (int, bool) {
	e := &s.fcache[flowSlot(ip)]
	if e.ok && e.ip == ip {
		s.FlowCacheHits++
		return int(e.out), true
	}
	out, ok := s.Route(ip)
	if ok {
		*e = flowEntry{ip: ip, out: int32(out), ok: true}
	}
	return out, ok
}

// RouteEntries returns the resident routing-table sizes: per-IP routes and
// aggregate (prefix) routes, each prefix counted once however often it was
// installed. The scale tests assert the aggregate build keeps perIP+prefix
// O(pods), not O(hosts).
func (s *Switch) RouteEntries() (perIP, prefix int) {
	if s.dirty {
		s.compile()
	}
	for _, r := range s.rules {
		if r.bits == perIPBits {
			perIP++
		}
	}
	return perIP, len(s.rules) - perIP
}

// RouteStateBytes returns the bytes of routing state this switch holds: its
// rules, their candidate pool and the compiled interval table (a 4-byte
// start and a 4-byte action per interval). The scale benchmarks track it
// per host across revisions.
func (s *Switch) RouteStateBytes() int {
	if s.dirty {
		s.compile()
	}
	return ruleBytes*len(s.rules) + 4*len(s.cands) + 8*len(s.starts)
}

// invalidateFlowCache clears every cached forwarding decision. Called on any
// mutation that could change a next hop: route installs and interface
// additions (which leave the compiled table as it is — no route changed).
func (s *Switch) invalidateFlowCache() {
	s.fcache = [flowCacheSize]flowEntry{}
}

// receive implements node. The switch owns the frame: a dataplane that
// consumes it (Process returning false) must not retain it — the switch
// releases it on return.
func (s *Switch) receive(in *Iface, f *proto.Frame) {
	s.RxPackets++
	if s.Dataplane != nil {
		if !s.Dataplane.Process(s, in, f) {
			f.Release()
			return
		}
	}
	s.forward(in, f)
}

// forward routes f out of the switch, applying the pipeline latency. The
// pipeline hop is a typed delivery event onto the egress interface's enqueue
// sink — no closure.
func (s *Switch) forward(in *Iface, f *proto.Frame) {
	out, ok := s.lookup(f.IP.Dst)
	if !ok {
		s.NoRoute++
		f.Release()
		return
	}
	env := s.net.env
	env.PostDelivery(env.Now()+s.net.SwitchLatency, &s.ifaces[out].enqSink, f)
}

// Inject sends a locally generated frame out the route for its destination,
// used by dataplanes to emit replies (e.g., NetCache cache hits).
func (s *Switch) Inject(f *proto.Frame) {
	s.forward(nil, f)
}

// addResidence implements the transparent clock: PTP event messages get the
// switch residence time (pipeline + queueing + serialization start skew)
// added to their correction field.
func (s *Switch) addResidence(f *proto.Frame, residence sim.Time) {
	if f.IP.Proto != proto.IPProtoUDP || f.UDP.DstPort != proto.PortPTPEvent {
		return
	}
	m, err := proto.ParsePTP(f.Payload)
	if err != nil {
		return
	}
	m.Correction += residence
	f.Payload = proto.AppendPTP(f.Payload[:0], m)
}
