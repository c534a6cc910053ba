package flowsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/sim"
	"repro/internal/stats"
)

// oracleRecompute is the flow-side progressive filling that recompute
// replaced, kept as it was (the per-flow share scratch moved from a flow
// field to a local slice): each round computes each unfixed flow's minimum
// per-link fair share, fixes the flows achieving the global minimum,
// subtracts, and repeats — O(rounds × flows × hops). The link-side solver
// must reproduce its rates bit for bit, round cap included.
func oracleRecompute(r *replica) {
	for _, bl := range r.active {
		bl.avail = bl.cap
		bl.unfixed = bl.nflows
	}
	share := make([]float64, len(r.flows))
	unfixed := 0
	for _, f := range r.flows {
		if len(f.links) == 0 {
			f.rate = rateInf
		} else {
			f.rate = -1
			unfixed++
		}
	}
	for round := 0; unfixed > 0; round++ {
		minShare := math.Inf(1)
		for i, f := range r.flows {
			if f.rate >= 0 {
				continue
			}
			s := math.Inf(1)
			for _, bl := range f.links {
				if bl.unfixed <= 0 {
					continue
				}
				if sh := bl.avail / float64(bl.unfixed); sh < s {
					s = sh
				}
			}
			if s < 0 {
				s = 0
			}
			share[i] = s
			if s < minShare {
				minShare = s
			}
		}
		last := round == maxRounds-1
		for i, f := range r.flows {
			if f.rate >= 0 || (!last && share[i] > minShare) {
				continue
			}
			f.rate = share[i]
			for _, bl := range f.links {
				bl.avail -= share[i]
				bl.unfixed--
			}
			unfixed--
		}
	}
}

// twin is one synthetic mix held twice — the solver's replica and the
// oracle's — over link sets that correspond index for index. No fabric, no
// routing: flows are attached straight to the links a test names.
type twin struct {
	t     testing.TB
	rep   [2]*replica
	links [2][]*blink
}

func newTwin(t testing.TB, caps []float64) *twin {
	w := &twin{t: t}
	for k := range w.rep {
		w.rep[k] = &replica{
			fct: stats.NewReservoir(16, 1),
		}
		for _, c := range caps {
			w.links[k] = append(w.links[k], &blink{cap: c, activeIdx: -1})
		}
	}
	return w
}

// admit attaches one flow over the given link indices to both replicas.
func (w *twin) admit(path []int) {
	for k, r := range w.rep {
		f := &flow{bytes: 1, remaining: 1}
		for _, li := range path {
			f.links = append(f.links, w.links[k][li])
		}
		r.attach(f)
	}
}

// complete retires flow i from both replicas through completeDue.
func (w *twin) complete(i int) {
	for _, r := range w.rep {
		r.flows[i].remaining = 0
		if !r.completeDue(0) {
			w.t.Fatal("completeDue retired nothing")
		}
	}
}

// solve rates the mix with the solver on one replica and the oracle on the
// other and requires every rate, then every reservation, bit-equal.
func (w *twin) solve(what string) {
	w.t.Helper()
	a, b := w.rep[0], w.rep[1]
	a.recompute()
	oracleRecompute(b)
	requireSameRates(w.t, a, b, what)
	a.applyReservations()
	b.applyReservations()
	for i := range w.links[0] {
		if ra, rb := w.links[0][i].resv, w.links[1][i].resv; ra != rb {
			w.t.Fatalf("%s: link %d reserves %d, oracle %d", what, i, ra, rb)
		}
	}
	if len(a.active) != len(b.active) {
		w.t.Fatalf("%s: %d active links, oracle %d", what, len(a.active), len(b.active))
	}
}

func requireSameRates(t testing.TB, a, b *replica, what string) {
	t.Helper()
	if len(a.flows) != len(b.flows) {
		t.Fatalf("%s: %d flows, oracle %d", what, len(a.flows), len(b.flows))
	}
	for i := range a.flows {
		ra, rb := a.flows[i].rate, b.flows[i].rate
		if math.Float64bits(ra) != math.Float64bits(rb) {
			t.Fatalf("%s: flow %d of %d rated %v (%#x), oracle %v (%#x)", what, i, len(a.flows),
				ra, math.Float64bits(ra), rb, math.Float64bits(rb))
		}
	}
}

// randomPath draws 1–6 distinct links; a small link set makes shared
// endpoints and shared bottlenecks the common case.
func randomPath(rng *sim.Rand, nlinks int) []int {
	n := 1 + rng.Intn(6)
	if n > nlinks {
		n = nlinks
	}
	return rng.Perm(nlinks)[:n]
}

// TestSolverMatchesOracle is the solver's property test: seeded random
// link sets and mixes, rated again after every batch of completions and
// arrivals so stale scratch, idle links still on the active list and
// re-used heap slots are all in play. Capacities come from three values, so
// equal shares (ties) happen in every mix.
func TestSolverMatchesOracle(t *testing.T) {
	tiers := []float64{10e9, 40e9, 100e9}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		nlinks := 2 + rng.Intn(60)
		caps := make([]float64, nlinks)
		for i := range caps {
			caps[i] = tiers[rng.Intn(len(tiers))]
		}
		w := newTwin(t, caps)
		for step := 0; step < 12; step++ {
			for n := rng.Intn(len(w.rep[0].flows)/2 + 1); n > 0; n-- {
				w.complete(rng.Intn(len(w.rep[0].flows)))
			}
			for n := 1 + rng.Intn(80); n > 0; n-- {
				w.admit(randomPath(rng, nlinks))
			}
			w.solve(fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestSolverEdgeCases pins the shapes a random mix does not reach.
func TestSolverEdgeCases(t *testing.T) {
	t.Run("ties", func(t *testing.T) {
		// Eight equal links, two flows each, chained so every link is tight
		// in round 0 and every flow is reached through two of them.
		w := newTwin(t, []float64{10e9, 10e9, 10e9, 10e9, 10e9, 10e9, 10e9, 10e9})
		for i := 0; i < 8; i++ {
			w.admit([]int{i, (i + 1) % 8})
		}
		w.solve("ties")
		if got := w.rep[0].flows[0].rate; got != 5e9 {
			t.Fatalf("tied flows rated %v, want 5e9", got)
		}
	})
	t.Run("negative avail", func(t *testing.T) {
		// A link that starts below zero and one at zero: their flows clamp
		// to rate 0, and a flow sharing only a healthy link with them gets
		// all of it.
		w := newTwin(t, []float64{-5e9, 0, 10e9, 40e9})
		w.admit([]int{0, 2})
		w.admit([]int{1, 2})
		w.admit([]int{2, 3})
		w.admit([]int{3})
		w.solve("negative avail")
		for i, want := range []float64{0, 0, 10e9, 30e9} {
			if got := w.rep[0].flows[i].rate; got != want {
				t.Fatalf("flow %d rated %v, want %v", i, got, want)
			}
		}
	})
	t.Run("repeated link and linkless flow", func(t *testing.T) {
		w := newTwin(t, []float64{10e9, 40e9})
		w.admit([]int{0, 1, 0})
		w.admit([]int{0})
		w.admit(nil)
		w.solve("repeated link")
		if got := w.rep[0].flows[2].rate; got != rateInf {
			t.Fatalf("linkless flow rated %v, want %v", got, float64(rateInf))
		}
	})
	t.Run("round cap", func(t *testing.T) {
		// 300 private links of distinct capacity under one wide shared link:
		// 300 distinct bottleneck shares. 99 rounds fix one flow each, the
		// last pass rates the other 201, all but the smallest above the
		// round's share.
		const n = 300
		caps := make([]float64, n+1)
		for i := 0; i < n; i++ {
			caps[i] = float64(i+1) * 1e6
		}
		caps[n] = 1e15
		w := newTwin(t, caps)
		for i := 0; i < n; i++ {
			w.admit([]int{(i * 7) % n, n})
		}
		w.solve("round cap")
		r := w.rep[0]
		if r.roundCapHits != 1 || r.cappedFlows != n-maxRounds {
			t.Fatalf("round cap counted %d hits, %d flows; want 1, %d", r.roundCapHits, r.cappedFlows, n-maxRounds)
		}
		// Exactly maxRounds distinct shares is a full solve, not a cap hit:
		// nothing is rated above the last share.
		w = newTwin(t, caps)
		for i := 0; i < maxRounds; i++ {
			w.admit([]int{i, n})
		}
		w.solve("exactly maxRounds")
		if r := w.rep[0]; r.roundCapHits != 0 || r.cappedFlows != 0 {
			t.Fatalf("an exact %d-round solve counted %d cap hits, %d flows", maxRounds, r.roundCapHits, r.cappedFlows)
		}
	})
}

// TestSolverCapHitMatchesOracle is mixed_1m's regime in small: disjoint
// elephant pairs over shared uplinks and core links, hundreds of distinct
// bottleneck shares, every solve truncated by the round cap — before and
// after a tenth of the elephants is replaced.
func TestSolverCapHitMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		w := closMix(t, seed, 4000, 800, 200, 2000)
		w.solve(fmt.Sprintf("seed %d", seed))
		rng := sim.NewRand(seed)
		for n := 0; n < 200; n++ {
			w.complete(rng.Intn(len(w.rep[0].flows)))
			w.admit(randomPath(rng, len(w.links[0])))
		}
		w.solve(fmt.Sprintf("seed %d after churn", seed))
		if r := w.rep[0]; r.roundCapHits != 2 || r.cappedFlows < 1000 {
			t.Fatalf("seed %d: %d cap hits rating %d flows over two solves; the mix is meant to hit the cap both times",
				seed, r.roundCapHits, r.cappedFlows)
		}
	}
}

// TestSolverChurnMatchesOracle runs the whole tier twice over one Clos —
// Poisson arrivals, Pareto sizes, real paths — stepping both engines event
// for event, one rating with the solver and one with the oracle. Every
// event time, every rate and every iface's reservation after every event
// must agree, which is the Reserve value sequence per iface.
func TestSolverChurnMatchesOracle(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 4, LeafPerPod: 4, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 6,
		HostRate: 10 * sim.Gbps, LeafRate: 25 * sim.Gbps, CoreRate: 40 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	}
	for _, seed := range []uint64{42, 7} {
		var reps [2]*replica
		var ifaces [2][]*netsim.Iface
		for k := range reps {
			topo, m := topogen.Clos(spec)
			b := topo.Build("churn", seed, nil, nil)
			endpoints := make([]int, m.TotalHosts())
			for i := range endpoints {
				endpoints[i] = i
			}
			eng := Install(b, endpoints, Spec{
				Pattern:     workload.Uniform{},
				Sizes:       workload.Pareto{Min: 20_000, Alpha: 1.2, Max: 20_000_000},
				FlowsPerSec: 4_000,
				Seed:        seed,
			})
			reps[k] = eng.reps[0]
			reps[k].scheduleArrival(0)
			for _, sw := range b.Switches {
				ifaces[k] = append(ifaces[k], sw.Ifaces()...)
			}
			for _, h := range b.Hosts {
				ifaces[k] = append(ifaces[k], h.Iface())
			}
		}
		a, b := reps[0], reps[1]
		now := sim.Time(0)
		solves, reserves, peak := 0, 0, 0
		last := make([]int64, len(ifaces[0]))
		for ev := 0; ev < 4000; ev++ {
			ta, tb := a.nextEvent(now), b.nextEvent(now)
			if ta != tb || ta < 0 {
				t.Fatalf("seed %d event %d: next at %v, oracle %v", seed, ev, ta, tb)
			}
			now = ta
			ca, cb := a.step(now), b.step(now)
			if ca != cb {
				t.Fatalf("seed %d event %d: membership changed %v, oracle %v", seed, ev, ca, cb)
			}
			if !ca {
				continue
			}
			solves++
			a.recompute()
			oracleRecompute(b)
			requireSameRates(t, a, b, fmt.Sprintf("seed %d event %d at %v", seed, ev, now))
			a.applyReservations()
			b.applyReservations()
			for i, ia := range ifaces[0] {
				va, vb := ia.Reserved(), ifaces[1][i].Reserved()
				if va != vb {
					t.Fatalf("seed %d event %d: iface %d reserved %d, oracle %d", seed, ev, i, va, vb)
				}
				if va != last[i] {
					last[i] = va
					reserves++
				}
			}
			if len(a.flows) > peak {
				peak = len(a.flows)
			}
		}
		if a.completed == 0 || peak < 50 || reserves < solves {
			t.Fatalf("seed %d: churn too thin: %d completed, peak %d active, %d reserves over %d solves",
				seed, a.completed, peak, reserves, solves)
		}
		t.Logf("seed %d: %d solves, %d started, %d completed, peak %d active, %d reservation changes",
			seed, solves, a.started, a.completed, peak, reserves)
	}
}

// TestRecomputeSteadyStateAllocs: the Poisson regime recomputes at every
// arrival, so once the scratch has grown a recompute must allocate nothing.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	r := fewRoundsMix(t).rep[0]
	r.recompute()
	if n := testing.AllocsPerRun(20, r.recompute); n != 0 {
		t.Fatalf("recompute allocates %v times per call in steady state", n)
	}
}
