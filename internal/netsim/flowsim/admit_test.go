package flowsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/snap"
)

// admitClos is a small instantiated Clos: 4 pods × 2 leaves × 4 hosts.
var admitClos = topogen.ClosSpec{
	Pods: 4, LeafPerPod: 2, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 4,
	HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps,
	LinkDelay: sim.Microsecond,
}

// admitFabric builds admitClos in parts partitions and returns every host
// slot as the endpoint set.
func admitFabric(t testing.TB, parts int) (*netsim.Topology, *netsim.Built, *topogen.ClosMeta, []int) {
	t.Helper()
	topo, m := topogen.Clos(admitClos)
	var assign []int
	if parts > 1 {
		assign = m.AssignByPod(parts)
	}
	b := topo.Build("admit", 5, assign, nil)
	var slots []int
	for _, pod := range m.HostSlots {
		for _, leaf := range pod {
			slots = append(slots, leaf...)
		}
	}
	return topo, b, m, slots
}

// blackhole drops host 3.1.3's address at every core, so only flows from
// its own pod still reach it.
func blackhole(b *netsim.Built, m *topogen.ClosMeta) {
	for _, c := range m.Core {
		b.Switches[c].SetPrefixRoute(proto.MakePrefix(m.HostIP(3, 1, 3), 32))
	}
}

// breakRoutes makes three destinations unroutable in the three ways a walk
// can fail: one host is blackholed at every core, one is routed into a
// host port on leaf 0.0, and one ping-pongs between leaf 0.1 and spine 0.0
// until the hop guard trips.
func breakRoutes(t testing.TB, topo *netsim.Topology, b *netsim.Built, m *topogen.ClosMeta) {
	t.Helper()
	blackhole(b, m)

	leaf := b.Switches[m.Leaf[0][0]]
	port := slices.Index(leaf.Ifaces(), b.Hosts[m.HostSlots[0][0][0]].Iface().Peer())
	if port < 0 {
		t.Fatal("host port not found on its leaf")
	}
	leaf.SetRoute(m.HostIP(2, 0, 0), port)

	loop := m.HostIP(1, 1, 2)
	for li, l := range topo.Links {
		if l.A == m.Leaf[0][1] && l.B == m.Spine[0][0] {
			b.Switches[l.A].SetRoute(loop, int(b.LinkIfaces[li][0]))
			b.Switches[l.B].SetRoute(loop, int(b.LinkIfaces[li][1]))
			return
		}
	}
	t.Fatal("leaf 0.1 – spine 0.0 link not found")
}

// hopWalk is the reference resolver: one flow's path walked hop by hop
// with Switch.Route, each next hop mapped to its topology link through a
// (switch, iface) table built here from Built.LinkIfaces.
type hopWalk struct {
	r    *replica
	link map[[2]int]int // (switch, iface) → 2·li + dir
}

func newHopWalk(r *replica) *hopWalk {
	h := &hopWalk{r: r, link: map[[2]int]int{}}
	for li, l := range r.eng.topo.Links {
		ifs := r.eng.b.LinkIfaces[li]
		if ifs[0] >= 0 {
			h.link[[2]int{l.A, int(ifs[0])}] = 2*li + dirFwd
		}
		if ifs[1] >= 0 {
			h.link[[2]int{l.B, int(ifs[1])}] = 2*li + dirRev
		}
	}
	return h
}

// walk returns the links, switch count and base delay the engine must
// assign to a flow, or why its walk failed.
func (h *hopWalk) walk(src, dst int32, bytes int64) (links []*blink, hops int32, base sim.Time, fail string) {
	eng := h.r.eng
	srcSlot, dstSlot := int32(eng.endpoints[src]), int32(eng.endpoints[dst])
	s, d := eng.topo.Hosts[srcSlot], eng.topo.Hosts[dstSlot]
	lastWire := lastPktWire(bytes)
	delay := s.Delay + d.Delay
	var fill sim.Time
	if s.Rate > 0 {
		links = append(links, h.r.accessLink(srcSlot, dirFwd, s.Rate))
	}
	cur, nsw := s.Switch, int32(1)
	for cur != d.Switch {
		out, ok := eng.b.Switches[cur].Route(d.IP)
		if !ok {
			return nil, 0, 0, "no route"
		}
		k, ok := h.link[[2]int{cur, out}]
		if !ok {
			return nil, 0, 0, "attachment port"
		}
		li, dir := k/2, int8(k%2)
		l := eng.topo.Links[li]
		if l.Rate > 0 {
			links = append(links, h.r.topoLink(int32(li), dir, l.Rate))
			fill += sim.TransmitTime(lastWire, l.Rate)
		}
		delay += l.Delay
		if cur = l.B; dir == dirRev {
			cur = l.A
		}
		if nsw++; nsw > maxHops {
			return nil, 0, 0, "loop"
		}
	}
	if d.Rate > 0 {
		links = append(links, h.r.accessLink(dstSlot, dirRev, d.Rate))
		fill += sim.TransmitTime(lastWire, d.Rate)
	}
	return links, nsw, delay + sim.Time(nsw)*eng.switchLatency + fill, ""
}

// requireMatchesHopWalk checks replica r's admitted flows against the
// reference walk of every arrival, in arrival order: same links, hops and
// base delay for each routable arrival, the unroutable ones counted and
// skipped, and the active-link list in first-use order. It returns how
// many arrivals failed each way.
func requireMatchesHopWalk(t *testing.T, r *replica, arrivals []workload.TraceFlow) map[string]int {
	t.Helper()
	h := newHopWalk(r)
	fails := map[string]int{}
	var active []*blink
	seen := map[*blink]bool{}
	k := 0
	for i, a := range arrivals {
		links, hops, base, fail := h.walk(int32(a.Src), int32(a.Dst), a.Bytes)
		if fail != "" {
			fails[fail]++
			continue
		}
		if k >= len(r.flows) {
			t.Fatalf("arrival %d routes, but only %d flows were admitted", i, len(r.flows))
		}
		f := r.flows[k]
		k++
		if int(f.src) != a.Src || int(f.dst) != a.Dst || f.bytes != a.Bytes {
			t.Fatalf("flow %d is %d→%d (%d B), want arrival %d: %d→%d (%d B)",
				k-1, f.src, f.dst, f.bytes, i, a.Src, a.Dst, a.Bytes)
		}
		if !slices.Equal(f.links, links) || f.hops != hops || f.baseDelay != base {
			t.Fatalf("arrival %d (%d→%d): links %p hops %d base %v, hop walk %p hops %d base %v",
				i, a.Src, a.Dst, f.links, f.hops, f.baseDelay, links, hops, base)
		}
		for _, bl := range links {
			if !seen[bl] {
				seen[bl] = true
				active = append(active, bl)
			}
		}
	}
	unroutable := 0
	for _, n := range fails {
		unroutable += n
	}
	if k != len(r.flows) || r.started != k || r.unroutable != unroutable {
		t.Fatalf("admitted %d flows (started %d, unroutable %d), hop walk routes %d and fails %d",
			len(r.flows), r.started, r.unroutable, k, unroutable)
	}
	if !slices.Equal(r.active, active) {
		t.Fatalf("%d active links, hop walk %d, or in another order", len(r.active), len(active))
	}
	return fails
}

// randomTrace draws n flows between distinct endpoints, all starting at 0,
// with sizes that vary the last packet's wire size.
func randomTrace(seed uint64, n, endpoints int) *workload.Trace {
	rng := sim.NewRand(seed)
	tr := &workload.Trace{Flows: make([]workload.TraceFlow, n)}
	for i := range tr.Flows {
		src := rng.Intn(endpoints)
		dst := (src + 1 + rng.Intn(endpoints-1)) % endpoints
		tr.Flows[i] = workload.TraceFlow{Src: src, Dst: dst, Bytes: 1 + int64(rng.Intn(5*netsim.MSS))}
	}
	return tr
}

// TestBatchAdmissionMatchesHopWalk holds the switch-major batch resolver to
// the per-flow hop walk it replaced: a trace longer than one chunk, with
// destinations unroutable each way a walk can fail, on a monolithic and a
// two-partition build (every replica); a lone synthetic arrival; and
// RestoreState's re-resolve.
func TestBatchAdmissionMatchesHopWalk(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("trace/parts=%d", parts), func(t *testing.T) {
			topo, b, m, slots := admitFabric(t, parts)
			breakRoutes(t, topo, b, m)
			tr := randomTrace(uint64(parts), admitChunk+admitChunk/2, len(slots))
			eng := Install(b, slots, Spec{Trace: tr, Seed: 3})
			if len(eng.reps) != parts {
				t.Fatalf("%d replicas, want %d", len(eng.reps), parts)
			}
			for _, r := range eng.reps {
				r.scheduleArrival(0)
				if !r.step(0) {
					t.Fatal("admission wave admitted nothing")
				}
				fails := requireMatchesHopWalk(t, r, tr.Flows)
				for _, why := range []string{"no route", "attachment port", "loop"} {
					if fails[why] == 0 {
						t.Errorf("no arrival failed by %s: the fixture does not exercise it", why)
					}
				}
			}
		})
	}

	t.Run("synthetic", func(t *testing.T) {
		_, b, _, slots := admitFabric(t, 1)
		eng := Install(b, slots, Spec{
			Pattern: workload.Uniform{}, Sizes: workload.Fixed(3000), FlowsPerSec: 1000, Seed: 9,
		})
		r := eng.reps[0]
		r.scheduleArrival(0)
		for r.started == 0 {
			before := r.skipped
			r.step(r.nextArrival)
			if r.started+r.skipped-before != 1 {
				t.Fatalf("one step drew %d arrivals", r.started+r.skipped-before)
			}
		}
		f := r.flows[0]
		requireMatchesHopWalk(t, r, []workload.TraceFlow{{Src: int(f.src), Dst: int(f.dst), Bytes: f.bytes}})
	})

	// Re-resolving a checkpoint's flows against a fabric where some no
	// longer route fails naming the first of them in checkpoint order, past
	// the first chunk too, ahead of a later flow in the same chunk whose
	// endpoint is outside the set; it succeeds on the fabric and endpoint
	// set that admitted them.
	t.Run("restore", func(t *testing.T) {
		_, b, m, slots := admitFabric(t, 1)
		ep := make(map[int]int, len(slots)) // slot → endpoint index
		for i, s := range slots {
			ep[s] = i
		}
		hole := ep[m.HostSlots[3][1][3]] // dropped at the cores by blackhole
		from := ep[m.HostSlots[0][0][1]] // another pod, so its flows cross a core
		// The checkpointing engine has one endpoint more than slots, an
		// alias of slot 0, so a flow to it is outside the restoring set.
		alias := append(slices.Clone(slots), slots[0])

		tr := randomTrace(11, admitChunk+64, len(slots))
		for i := range tr.Flows {
			if f := &tr.Flows[i]; f.Src == hole || f.Dst == hole {
				f.Src, f.Dst = from, (hole+1)%len(slots)
			}
		}
		first := admitChunk + 5
		tr.Flows[first].Src, tr.Flows[first].Dst = from, hole
		tr.Flows[first+1].Src, tr.Flows[first+1].Dst = from, len(slots)
		tr.Flows[first+2].Src, tr.Flows[first+2].Dst = from, hole

		src := Install(b, alias, Spec{Trace: tr, Seed: 4})
		src.reps[0].scheduleArrival(0)
		src.reps[0].step(0)
		var enc snap.Encoder
		if err := src.SnapshotState(&enc); err != nil {
			t.Fatal(err)
		}
		restore := func(broken bool, endpoints []int) error {
			_, b, _, _ := admitFabric(t, 1)
			if broken {
				blackhole(b, m)
			}
			trace := tr // Install checks it against endpoints; RestoreState reads none of it
			if len(endpoints) < len(alias) {
				trace = &workload.Trace{Flows: tr.Flows[:1]}
			}
			return Install(b, endpoints, Spec{Trace: trace, Seed: 4}).RestoreState(snap.NewDecoder(enc.Bytes()))
		}

		if err := restore(false, alias); err != nil {
			t.Fatalf("restore on the admitting fabric: %v", err)
		}
		want := fmt.Sprintf("snapshot flow %d endpoints outside set", first+1)
		if err := restore(false, slots); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore without endpoint %d: %v, want %q", len(slots), err, want)
		}
		want = fmt.Sprintf("snapshot flow %d (%d→%d) no longer routes", first, from, hole)
		if err := restore(true, slots); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore on a fabric that blackholes endpoint %d: %v, want %q", hole, err, want)
		}
	})
}

// TestAdmissionAllocs pins what admission allocates once every link exists
// and the scratch has grown: the slab chunks its new flows and their link
// arrays fill, and nothing per flow or per admission chunk. Each admission
// here carves fresh flows (the last wave's are dropped, not retired), so a
// hundred lone arrivals allocate a few chunks between them.
func TestAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's")
	}
	for _, c := range []struct{ n, runs int }{{1, 100}, {2*admitChunk + 100, 1}} {
		t.Run(fmt.Sprint(c.n), func(t *testing.T) {
			_, b, _, slots := admitFabric(t, 1)
			eng := Install(b, slots, Spec{Trace: randomTrace(uint64(c.n), c.n, len(slots)), Seed: 2})
			r := eng.reps[0]
			admit := func() {
				clear(r.flows)
				r.flows = r.flows[:0]
				r.traceCur = 0
				r.scheduleArrival(0)
				r.step(0)
			}
			admit() // creates every link and grows the scratch
			links := 0
			for _, f := range r.flows {
				links += len(f.links)
			}
			// A collection during the run allocates runtime objects of its own.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < c.runs; i++ {
				admit()
			}
			runtime.ReadMemStats(&m1)
			// Full chunks for the flows and link arrays carved, where a link
			// array never spans chunks (so a link chunk holds all but the
			// longest array's worth), plus the chunks each slab makes while
			// doubling from 8 records to full size: ten at most here.
			perFlow, perLinks := slab.PerChunk[flow](), slab.PerChunk[*blink]()-(maxHops+2)
			chunks := (c.n*c.runs+perFlow-1)/perFlow + (links*c.runs+perLinks-1)/perLinks + 2*10
			if got := m1.Mallocs - m0.Mallocs; got > uint64(chunks) {
				t.Fatalf("admitting %d flows %d times allocated %d objects, want at most %d (the flow and link slab chunks they fill)",
					c.n, c.runs, got, chunks)
			}
			if len(r.flows) != c.n {
				t.Fatalf("admitted %d of %d flows", len(r.flows), c.n)
			}
		})
	}
}

// TestArrivalAllocs: once the free list is warm, a Poisson-arrival run
// allocates nothing per arrival — each arrival reuses a retired flow and
// its links array. What a window still allocates is high-water growth,
// rarer the longer the run: the solver's exactly sized scratch at a new
// peak of active links, the FCT reservoir filling, a longer path than a
// recycled flow's array holds. One in a thousand arrivals bounds it; a
// flow or a links array per arrival is thousands.
func TestArrivalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's")
	}
	_, b, _, slots := admitFabric(t, 1)
	eng := Install(b, slots, Spec{
		Pattern: workload.Uniform{}, Sizes: workload.Fixed(20_000), FlowsPerSec: 20_000, Seed: 6,
	})
	r := eng.reps[0]
	sched := sim.NewScheduler(0)
	b.Parts[0].Attach(core.Env{Sched: sched, Src: 1})
	const window = 10 * sim.Millisecond
	b.Parts[0].Start(4 * window)
	sched.RunBefore(2 * window)
	if r.completed == 0 || len(r.free) == 0 {
		t.Fatalf("warm-up retired %d flows (%d free): no churn", r.completed, len(r.free))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// AllocsPerRun calls run once unmeasured first: the third window warms
	// further, the fourth is measured.
	var arrivals int
	run := func() {
		before := r.started + r.skipped
		sched.RunBefore(sched.Now() + window)
		arrivals = r.started + r.skipped - before
	}
	got := testing.AllocsPerRun(1, run)
	if arrivals < 1000 {
		t.Fatalf("%d arrivals in the measured window, want at least 1000", arrivals)
	}
	if got > float64(arrivals)/1000 {
		t.Fatalf("%d arrivals allocated %.0f objects once the free list was warm, want at most one per thousand",
			arrivals, got)
	}
}

// TestBlinkSize pins blink at 56 bytes: blinks are packed into their
// replica's slab, half a million of them on a 10⁶-endpoint mix, so every
// byte added here is paid on each.
func TestBlinkSize(t *testing.T) {
	if got := unsafe.Sizeof(blink{}); got != 56 {
		t.Errorf("blink is %d bytes, want 56", got)
	}
}
