// Package flowsim is the flow-level background-traffic tier: it models
// bulk flows as fluid rates under max-min fair sharing over the fabric's
// link graph instead of as individual frames. Time advances only at flow
// starts, completions, and the rate recomputations they trigger, so the
// scheduler cost is O(active flows), independent of flow size — a 10⁶-
// endpoint background mix costs thousands of events where the packet tier
// would cost billions of frames.
//
// The tier coexists with the packet-level substrate on one fabric
// (SplitSim's mixed-fidelity split: only flows under study pay packet-
// level cost). Coupling is one-way at shared links: whenever a link's
// aggregate background rate changes, the engine calls Iface.Reserve on
// the transmitter, which shrinks the capacity foreground frames serialize
// at and adds an M/M/1-style queueing delay. Foreground traffic does not
// push back on background flows; the fluid trajectory is a pure function
// of virtual time.
//
// Admission is switch-major: arrivals due at one instant are drawn in
// order, admitChunk at a time, and each chunk's paths are resolved one hop
// level at a time with the flows sorted by their current switch, so a
// switch's route table is loaded once per level rather than once per
// flow. The chunk is attached in arrival order, so the flow list, the
// active-link list and every rate are what one-flow-at-a-time admission
// gives.
//
// Determinism by replication: partitioned builds get one replica of the
// whole fluid computation per partition. Every replica computes the
// identical global trajectory from the same seed (flow arrivals, paths,
// rates — all pure), but applies reservations only to ifaces its own
// partition owns. No cross-partition state is touched, so foreground
// digests stay bit-identical across sequential, coupled, and parallel
// placements with the background tier active.
package flowsim

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/netsim/workload"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/stats"
)

// Spec configures the background-flow mix. Exactly one arrival source must
// be set: FlowsPerSec (open-loop Poisson over the endpoint set) or Trace.
type Spec struct {
	// Pattern and Sizes draw each synthetic flow's destination and size,
	// exactly as in the packet tier. Ignored under Trace.
	Pattern workload.Pattern
	Sizes   workload.SizeDist

	// FlowsPerSec is the per-endpoint open-loop arrival rate; the engine
	// draws from the aggregate Poisson process of rate n·FlowsPerSec
	// (superposition), so arrival cost does not scale with endpoints.
	FlowsPerSec float64

	// Trace replays a recorded arrival schedule instead (same format the
	// packet tier consumes), indices into the endpoint set.
	Trace *workload.Trace

	Seed uint64
}

// perPktOverhead is the per-packet wire overhead the packet tier pays:
// Ethernet + IPv4 + UDP headers plus the 13-byte workload flow header.
// The fluid model drains wire bytes, not goodput bytes, so flow-level and
// packet-level completion times stay comparable.
const perPktOverhead = proto.EthernetLen + proto.IPv4Len + proto.UDPLen + 13

// rateInf stands in for "unconstrained" (a path with no finite-capacity
// links): 10¹⁵ bit/s drains any flow in under a microsecond without
// introducing float infinities into the arithmetic.
const rateInf = 1e15

// completeEps is the residual (in bits) below which a flow counts as
// drained; it absorbs float rounding between the scheduled completion
// time (ceiled to whole nanoseconds) and the advance arithmetic.
const completeEps = 1e-3

const (
	dirFwd  = 0  // A→B on a topology link; host→switch on an access link
	dirRev  = 1  // B→A; switch→host
	maxHops = 64 // routing-loop guard on path walks
)

// accessKey packs a host slot and a direction into the access-link map key.
func accessKey(slot int32, dir int8) uint64 { return uint64(uint32(slot))<<1 | uint64(dir) }

// hop is one step of a path walk: leaving a switch through an iface
// traverses topology link li to switch next. li < 0 marks an iface that is
// not a fabric link (a host attachment).
type hop struct {
	li   int32
	next int32
	dir  int8
}

// blink is a directed link the fluid computation tracks: capacity, the
// number of active flows crossing it, and — when this replica's partition
// owns the transmitting iface — the handle reservations are applied to.
// Blinks are carved from the replica's slab, 56 bytes each: the counts are
// 32-bit, which bounds the flows one link carries at 2³¹.
type blink struct {
	cap   float64       // bit/s
	iface *netsim.Iface // nil unless owned by this replica's partition
	resv  int64         // last reservation applied (bit/s)

	nflows    int32
	activeIdx int32 // index in replica.active, -1 when idle

	// progressive-filling scratch
	avail   float64
	sum     float64
	unfixed int32
}

// flow is one active background flow. links holds only finite-capacity
// directed links on its path; remaining counts wire bits (payload plus
// per-packet overhead) still to drain. Flows are carved from the replica's
// slab and recycled through its free list; a recycled flow keeps its links
// array for its next path when that fits.
type flow struct {
	src, dst  int32 // endpoint indices
	bytes     int64
	remaining float64
	rate      float64 // bit/s, assigned by recompute
	start     sim.Time
	baseDelay sim.Time // propagation + switch pipeline + store-and-forward fill
	hops      int32    // switches on the path; 0 until resolved, and for a flow that does not route
	links     []*blink
}

// Engine drives one background mix over a built fabric: one replica per
// partition, all computing the same trajectory.
type Engine struct {
	topo      *netsim.Topology
	b         *netsim.Built
	endpoints []int
	spec      Spec

	hops          [][]hop // [switch][ifaceIdx] → traversal
	switchLatency sim.Time
	reps          []*replica
}

// replica is the per-partition copy of the fluid state. Every field
// evolves identically across replicas; only iface pointers (and thus the
// side effects of Reserve) differ.
type replica struct {
	eng   *Engine
	net   *netsim.Network
	part  int
	nextH int

	rng    *sim.Rand
	seqs   []int32           // per-endpoint flow sequence numbers (Pattern input)
	flows  []*flow           // active flows in arrival order
	tlinks []*blink          // topology links, indexed 2·li+dir; nil until first use
	access map[uint64]*blink // host access links by accessKey
	active []*blink          // links with ≥1 active flow, first-use order
	chunk  []*flow           // arrivals drawn but not yet attached
	batch  batch             // resolveBatch scratch, grow-only
	solver solver            // recompute scratch, grow-only

	// Slabs the replica's blinks, flows and flow link arrays are carved
	// from, and the retired flows draw reuses before carving new ones.
	blinks  slab.Slab[blink]
	flowMem slab.Slab[flow]
	linkMem slab.Slab[*blink]
	free    []*flow

	lastAdvance sim.Time
	nextArrival sim.Time // -1 when the arrival process is exhausted
	nextWake    sim.Time // earliest outstanding posted wake, -1 if none
	traceCur    int

	started, completed, skipped, unroutable int
	roundCapHits, cappedFlows               int // solver diagnostics, not checkpointed
	bytesModeled                            int64
	events                                  uint64
	pktEvProj                               uint64
	fct                                     *stats.Latency
}

// Install sets up the background tier over b for the given endpoint set
// (host slot indices — lazy slots are fine and are never materialized).
// Call it after netsim.Build and before the run starts; registration
// order matters for determinism, like everything else.
func Install(b *netsim.Built, endpoints []int, spec Spec) *Engine {
	if len(endpoints) < 2 {
		panic("flowsim: need at least two endpoints")
	}
	if spec.Trace != nil {
		if spec.FlowsPerSec != 0 {
			panic("flowsim: set FlowsPerSec or Trace, not both")
		}
		if err := spec.Trace.Validate(len(endpoints)); err != nil {
			panic(err)
		}
	} else {
		if spec.FlowsPerSec <= 0 {
			panic("flowsim: FlowsPerSec must be positive (or provide a Trace)")
		}
		if spec.Pattern == nil || spec.Sizes == nil {
			panic("flowsim: synthetic arrivals need Pattern and Sizes")
		}
	}
	topo := b.Topo()
	if topo == nil {
		panic("flowsim: built fabric carries no topology")
	}
	eng := &Engine{
		topo:          topo,
		b:             b,
		endpoints:     endpoints,
		spec:          spec,
		switchLatency: b.Parts[0].SwitchLatency,
		hops:          make([][]hop, len(b.Switches)),
	}
	// One backing array, one row per switch as long as its iface list;
	// ifaces added later (lazy hosts) fall off the row's end and read as
	// attachments, which they are.
	nif := 0
	for _, sw := range b.Switches {
		nif += len(sw.Ifaces())
	}
	rows := make([]hop, nif)
	for i := range rows {
		rows[i].li = -1
	}
	for i, sw := range b.Switches {
		n := len(sw.Ifaces())
		eng.hops[i], rows = rows[:n:n], rows[n:]
	}
	for li := range topo.Links {
		l := &topo.Links[li]
		if fi := b.LinkIfaces[li][0]; fi >= 0 {
			eng.hops[l.A][fi] = hop{li: int32(li), next: int32(l.B), dir: dirFwd}
		}
		if fi := b.LinkIfaces[li][1]; fi >= 0 {
			eng.hops[l.B][fi] = hop{li: int32(li), next: int32(l.A), dir: dirRev}
		}
	}
	for p, net := range b.Parts {
		r := &replica{
			eng:         eng,
			net:         net,
			part:        p,
			rng:         sim.NewRand(spec.Seed ^ 0x9e3779b97f4a7c15),
			seqs:        make([]int32, len(endpoints)),
			tlinks:      make([]*blink, 2*len(topo.Links)),
			nextArrival: -1,
			nextWake:    -1,
			fct:         stats.NewReservoir(workload.FCTSamples, spec.Seed^0xc3c3c3c3c3c3c3c3),
		}
		r.resetLinks()
		r.nextH = net.RegisterNamed(fmt.Sprintf("flowsim/%d/next", spec.Seed), r.fire)
		net.OnStart(func() {
			now := r.net.Env().Now()
			r.lastAdvance = now
			r.scheduleArrival(now)
			r.scheduleWake(now)
		})
		eng.reps = append(eng.reps, r)
	}
	return eng
}

// wireBits is the on-the-wire size of a flow in bits: payload plus
// per-packet overhead, at the packet tier's netsim.MSS payload per packet.
func wireBits(bytes int64) float64 {
	pkts := (bytes + netsim.MSS - 1) / netsim.MSS
	return float64(bytes+pkts*perPktOverhead) * 8
}

// lastPktWire is the wire size of a flow's final packet, used for the
// store-and-forward pipeline-fill term of the base delay.
func lastPktWire(bytes int64) int {
	pkts := (bytes + netsim.MSS - 1) / netsim.MSS
	last := bytes - (pkts-1)*netsim.MSS
	return int(last) + perPktOverhead
}

// topoIface returns the transmitting iface of a directed topology link if
// this replica's partition owns it, else nil. At partition boundaries the
// iface is the external port's, which still lives on the owning switch.
func (r *replica) topoIface(li int32, dir int8) *netsim.Iface {
	l := &r.eng.topo.Links[li]
	sw, idx := l.A, r.eng.b.LinkIfaces[li][0]
	if dir == dirRev {
		sw, idx = l.B, r.eng.b.LinkIfaces[li][1]
	}
	if r.eng.b.SwitchPart[sw] != r.part || idx < 0 {
		return nil
	}
	return r.eng.b.Switches[sw].Ifaces()[idx]
}

// accessIface returns the transmitting iface of a host access link in the
// given direction if this partition owns it. Lazy slots that were never
// materialized have no ifaces — no foreground traffic crosses them, so
// there is nothing to throttle and nil is correct, not a loss. (A slot
// materialized after a blink was first cached keeps a nil iface; install
// foreground workloads before the background mix touches their slots.)
func (r *replica) accessIface(slot int32, dir int8) *netsim.Iface {
	b := r.eng.b
	th := &r.eng.topo.Hosts[slot]
	if dir == dirFwd { // host → switch: host-side transmitter
		if h := b.Hosts[slot]; h != nil && b.HostPart[slot] == r.part {
			return h.Iface()
		}
		return nil // external or unmaterialized: transmitter not in this network
	}
	// switch → host: switch-side transmitter
	if b.SwitchPart[th.Switch] != r.part {
		return nil
	}
	if th.External {
		if p := b.Exts[int(slot)]; p != nil {
			return p.Iface()
		}
		return nil
	}
	if h := b.Hosts[slot]; h != nil && h.Iface() != nil {
		return h.Iface().Peer()
	}
	return nil
}

// resetLinks drops every blink the replica holds, with the slab they came
// from, and the free flows, whose link arrays point at them. A trace names
// at most two access links per flow, so the map is sized once instead of
// grown.
func (r *replica) resetLinks() {
	clear(r.tlinks)
	hint := 0
	if tr := r.eng.spec.Trace; tr != nil {
		hint = 2 * len(tr.Flows)
	}
	r.access = make(map[uint64]*blink, hint)
	r.active = r.active[:0]
	r.blinks = slab.Slab[blink]{}
	clear(r.free)
	r.free = r.free[:0]
}

// newBlink carves a link of the given capacity from the replica's slab.
func (r *replica) newBlink(rate int64, iface *netsim.Iface) *blink {
	bl := r.blinks.New()
	bl.cap, bl.iface, bl.activeIdx = float64(rate), iface, -1
	return bl
}

// topoLink returns the replica's blink for a directed topology link,
// creating it on first use.
func (r *replica) topoLink(li int32, dir int8, rate int64) *blink {
	i := 2*int(li) + int(dir)
	if r.tlinks[i] == nil {
		r.tlinks[i] = r.newBlink(rate, r.topoIface(li, dir))
	}
	return r.tlinks[i]
}

// accessLink is topoLink for a host access link.
func (r *replica) accessLink(slot int32, dir int8, rate int64) *blink {
	key := accessKey(slot, dir)
	bl, ok := r.access[key]
	if !ok {
		bl = r.newBlink(rate, r.accessIface(slot, dir))
		r.access[key] = bl
	}
	return bl
}

// newFlow returns an unresolved flow: a retired one when the free list has
// any, else one carved from the slab. Only the links array survives reuse.
func (r *replica) newFlow(src, dst int32, bytes int64, remaining float64, start sim.Time) *flow {
	var f *flow
	if k := len(r.free) - 1; k >= 0 {
		f = r.free[k]
		r.free[k] = nil
		r.free = r.free[:k]
	} else {
		f = r.flowMem.New()
	}
	*f = flow{src: src, dst: dst, bytes: bytes, remaining: remaining, start: start, links: f.links[:0]}
	return f
}

// linksFor sets f.links to n entries, reusing f's array when it holds n.
func (r *replica) linksFor(f *flow, n int) {
	if cap(f.links) >= n {
		f.links = f.links[:n]
		return
	}
	f.links = r.linkMem.Cut(n)
}

// admitBatch resolves fs and attaches, in order, the flows that route;
// those that do not go back on the free list. It returns how many did not
// route and the index of the first of them (-1 if all did), and keeps fs,
// cleared, as the next chunk's buffer.
func (r *replica) admitBatch(fs []*flow) (unroutable, first int) {
	r.resolveBatch(fs)
	first = -1
	for i, f := range fs {
		if f.hops > 0 {
			r.attach(f)
			continue
		}
		r.free = append(r.free, f)
		if unroutable++; first < 0 {
			first = i
		}
	}
	clear(fs)
	r.chunk = fs[:0]
	return unroutable, first
}

// attach adds a flow whose links are known to the active set, putting each
// link on the active list at first use.
func (r *replica) attach(f *flow) {
	r.flows = append(r.flows, f)
	for _, bl := range f.links {
		bl.nflows++
		if bl.activeIdx < 0 {
			bl.activeIdx = int32(len(r.active))
			r.active = append(r.active, bl)
		}
	}
}

// fire is the single named-event handler: advance the fluid state to now,
// admit due arrivals, retire drained flows, recompute rates if membership
// changed, and schedule the next wake. Superseded wakes fire harmlessly —
// every step is idempotent at a given virtual time.
func (r *replica) fire(sim.NamedArgs) {
	now := r.net.Env().Now()
	r.events++
	r.net.NoteFlowEvents(1)
	if r.nextWake == now {
		r.nextWake = -1
	}
	if r.step(now) {
		r.recompute()
		r.applyReservations()
	}
	r.scheduleWake(now)
}

// step moves flow membership to now — drain, admit due arrivals, retire
// drained flows — and reports whether the active set changed. Due arrivals
// are drawn in order, admitChunk at a time; each chunk is resolved as one
// batch and attached in arrival order.
func (r *replica) step(now sim.Time) bool {
	r.advanceTo(now)
	changed := false
	for r.nextArrival >= 0 && r.nextArrival <= now {
		chunk := r.chunk[:0]
		for len(chunk) < admitChunk && r.nextArrival >= 0 && r.nextArrival <= now {
			if f := r.draw(now); f != nil {
				chunk = append(chunk, f)
			}
			r.scheduleArrival(now)
		}
		n := len(chunk)
		bad, _ := r.admitBatch(chunk)
		r.unroutable += bad
		r.started += n - bad
		changed = changed || bad < n
	}
	if r.completeDue(now) {
		changed = true
	}
	return changed
}

// advanceTo drains every active flow at its current rate over the elapsed
// virtual time.
func (r *replica) advanceTo(now sim.Time) {
	dt := now - r.lastAdvance
	if dt <= 0 {
		return
	}
	sec := float64(dt) / float64(sim.Second)
	for _, f := range r.flows {
		f.remaining -= f.rate * sec
	}
	r.lastAdvance = now
}

// draw takes the next arrival (trace tuple or synthetic draw) as an
// unresolved flow. It returns nil when the synthetic pattern declines the
// draw (-1 or self) — counted, never fatal.
func (r *replica) draw(now sim.Time) *flow {
	n := len(r.eng.endpoints)
	var src, dst int
	var bytes int64
	if tr := r.eng.spec.Trace; tr != nil {
		tf := tr.Flows[r.traceCur]
		r.traceCur++
		src, dst, bytes = tf.Src, tf.Dst, tf.Bytes
	} else {
		src = r.rng.Intn(n)
		seq := int(r.seqs[src])
		r.seqs[src]++
		dst = r.eng.spec.Pattern.Dst(r.rng, src, seq, n)
		if dst < 0 || dst == src {
			r.skipped++
			return nil
		}
		bytes = int64(r.eng.spec.Sizes.Sample(r.rng))
		if bytes < 1 {
			bytes = 1
		}
	}
	return r.newFlow(int32(src), int32(dst), bytes, wireBits(bytes), now)
}

// projEvents is what the packet tier would have scheduled to move
// drainedBits of this flow: per packet, one departure and one delivery
// event on each of the path's hops+1 links. Acks and retransmissions are
// ignored, so the projection undercounts — any speedup claim it supports
// is conservative. Counting drained bits (not flow size) keeps the
// projection honest for long flows still active at the horizon: only
// traffic the fluid model actually moved is credited.
func projEvents(f *flow, drainedBits float64) uint64 {
	pkts := uint64(drainedBits / 8 / (netsim.MSS + perPktOverhead))
	return pkts * 2 * uint64(f.hops+1)
}

// completeDue retires every flow whose wire bits have drained, recording
// its completion time (drain span plus the path's base delay), and puts it
// on the free list. Compaction preserves arrival order so float
// accumulation stays replica-identical.
func (r *replica) completeDue(now sim.Time) bool {
	w := 0
	done := false
	for _, f := range r.flows {
		if f.remaining > completeEps {
			r.flows[w] = f
			w++
			continue
		}
		done = true
		r.completed++
		r.bytesModeled += f.bytes
		r.pktEvProj += projEvents(f, wireBits(f.bytes))
		r.fct.Add(now - f.start + f.baseDelay)
		for _, bl := range f.links {
			bl.nflows--
		}
		r.free = append(r.free, f)
	}
	if done {
		for i := w; i < len(r.flows); i++ {
			r.flows[i] = nil
		}
		r.flows = r.flows[:w]
	}
	return done
}

// applyReservations pushes each link's aggregate background rate to its
// iface — only on links this partition owns, and only when the value
// changed — then drops idle links from the active list (order-preserving,
// with their reservation cleared by the zero sum).
func (r *replica) applyReservations() {
	for _, bl := range r.active {
		bl.sum = 0
	}
	for _, f := range r.flows {
		for _, bl := range f.links {
			bl.sum += f.rate
		}
	}
	w := 0
	for _, bl := range r.active {
		resv := int64(bl.sum)
		if resv != bl.resv {
			bl.resv = resv
			if bl.iface != nil {
				bl.iface.Reserve(resv)
			}
		}
		if bl.nflows == 0 {
			bl.activeIdx = -1
			continue
		}
		bl.activeIdx = int32(w)
		r.active[w] = bl
		w++
	}
	r.active = r.active[:w]
}

// scheduleArrival draws the next arrival time: the trace cursor's tuple,
// or an exponential gap from the aggregate Poisson process.
func (r *replica) scheduleArrival(now sim.Time) {
	if tr := r.eng.spec.Trace; tr != nil {
		if r.traceCur >= len(tr.Flows) {
			r.nextArrival = -1
			return
		}
		r.nextArrival = tr.Flows[r.traceCur].Start
		return
	}
	mean := float64(sim.Second) / (r.eng.spec.FlowsPerSec * float64(len(r.eng.endpoints)))
	r.nextArrival = now + sim.Time(r.rng.Exp(mean))
}

// nextEvent is the earliest pending moment after now: the next arrival or
// the earliest completion at current rates; -1 when neither exists.
func (r *replica) nextEvent(now sim.Time) sim.Time {
	t := r.nextArrival
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		dt := sim.Time(math.Ceil(f.remaining / f.rate * float64(sim.Second)))
		if dt < 1 {
			dt = 1
		}
		if c := now + dt; t < 0 || c < t {
			t = c
		}
	}
	return t
}

// scheduleWake posts the named wake at nextEvent unless an earlier wake is
// already outstanding. Later outstanding wakes are left to fire stale —
// fire is idempotent — because the scheduler has no cancel.
func (r *replica) scheduleWake(now sim.Time) {
	t := r.nextEvent(now)
	if t < 0 {
		return
	}
	if r.nextWake >= 0 && r.nextWake <= t {
		return
	}
	r.net.PostNamed(t, r.nextH, sim.NamedArgs{})
	r.nextWake = t
}

// Report summarizes the background tier (replica 0's view — all replicas
// agree by construction).
type Report struct {
	FlowsStarted   int
	FlowsCompleted int
	ActiveFlows    int
	// Skipped counts synthetic draws the pattern declined (-1 or self);
	// Unroutable counts flows whose path walk failed.
	Skipped    int
	Unroutable int
	// BytesModeled is payload bytes of completed flows.
	BytesModeled int64
	// Events is the number of scheduler events one replica consumed.
	Events uint64
	// ProjPacketEvents is what the packet tier would have scheduled to
	// move the traffic the fluid model drained — completed flows in full,
	// active flows pro-rata (conservative undercount; see projEvents).
	ProjPacketEvents uint64
	// RoundCapHits counts rate recomputations that ran into the solver's
	// round cap; CappedFlows counts the flows those rated above the final
	// round's bottleneck share — by fiat, where progressive filling would
	// have kept going. Both count this process's solver work and restart
	// from zero on a resumed run.
	RoundCapHits int
	CappedFlows  int
	FCT          *stats.Latency
}

// Collect returns the tier's report. Call it after the run: active flows'
// drained traffic is projected forward to the run horizon (advance is
// lazy — state only moves at events — so flows still active at the end
// have provably drained rate×span beyond their last event).
func (e *Engine) Collect() Report {
	r := e.reps[0]
	proj := r.pktEvProj
	var sec float64
	if dt := r.net.End() - r.lastAdvance; dt > 0 {
		sec = float64(dt) / float64(sim.Second)
	}
	for _, f := range r.flows {
		rem := f.remaining - f.rate*sec
		if rem < 0 {
			rem = 0
		}
		proj += projEvents(f, wireBits(f.bytes)-rem)
	}
	return Report{
		FlowsStarted:     r.started,
		FlowsCompleted:   r.completed,
		ActiveFlows:      len(r.flows),
		Skipped:          r.skipped,
		Unroutable:       r.unroutable,
		BytesModeled:     r.bytesModeled,
		Events:           r.events,
		ProjPacketEvents: proj,
		RoundCapHits:     r.roundCapHits,
		CappedFlows:      r.cappedFlows,
		FCT:              r.fct,
	}
}
