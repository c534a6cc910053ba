package orch_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// buildTrunked creates a chain of chatter components where consecutive
// pairs are connected by several parallel channels at one latency, so placed
// runs exercise both wirings (direct ports intra-group, channels bundled on
// one synchronized link cross-group).
func buildTrunked(seed uint64, nComps int) (*orch.Simulation, []*chatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*chatter, nComps)
	for i := range comps {
		comps[i] = &chatter{
			name:   fmt.Sprintf("t%d", i),
			period: sim.Time(60+rng.Intn(80)) * sim.Microsecond,
			rng:    sim.NewRand(seed ^ uint64(i)*0x5bd1),
		}
		s.Add(comps[i])
	}
	for i := 1; i < nComps; i++ {
		ca, cb := comps[i-1], comps[i]
		nPairs := 2 + rng.Intn(2)
		lat := sim.Time(2+rng.Intn(10)) * sim.Microsecond
		for j := 0; j < nPairs; j++ {
			pa, pb := len(ca.ports), len(cb.ports)
			ca.ports = append(ca.ports, nil)
			cb.ports = append(cb.ports, nil)
			s.Connect(fmt.Sprintf("trunk%d.%d", i, j), lat,
				orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[pa] = p }, Sink: ca.sink(pa)},
				orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[pb] = p }, Sink: cb.sink(pb)})
		}
	}
	return s, comps
}

// wireBundled connects comps in a ring at one latency plus one random chord
// each at one of two, one connection in three doubled into two parallel
// channels, so a two-group placement cuts several channels at one latency —
// a blocked one at least two ring edges — and the plan bundles them onto one
// synchronized endpoint pair. port(i) adds a port to component i and returns
// how to bind it and its sink.
func wireBundled(s *orch.Simulation, rng *sim.Rand, comps []core.Component,
	port func(i int) (func(core.Port), core.Sink)) {
	n := len(comps)
	connect := func(k, a, b int, lat sim.Time) {
		name := fmt.Sprintf("b%d.%d-%d", k, a, b)
		links := 1
		if rng.Intn(3) == 0 {
			links = 2
		}
		for l := 0; l < links; l++ {
			ba, sa := port(a)
			bb, sb := port(b)
			s.Connect(fmt.Sprintf("%s.%d", name, l), lat,
				orch.Side{Comp: comps[a], Bind: ba, Sink: sa}, orch.Side{Comp: comps[b], Bind: bb, Sink: sb})
		}
	}
	for i := 0; i < n; i++ {
		connect(2*i, i, (i+1)%n, 3*sim.Microsecond)
		if j := rng.Intn(n); j != i {
			connect(2*i+1, j, i, sim.Time(3+4*rng.Intn(2))*sim.Microsecond)
		}
	}
}

// buildBundled creates a chatter graph wired by wireBundled.
func buildBundled(seed uint64, nComps int) (*orch.Simulation, []*chatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*chatter, nComps)
	cs := make([]core.Component, nComps)
	for i := range comps {
		comps[i] = &chatter{
			name:   fmt.Sprintf("b%d", i),
			period: sim.Time(50+rng.Intn(100)) * sim.Microsecond,
			rng:    sim.NewRand(seed ^ uint64(i)*0x7f4a),
		}
		s.Add(comps[i])
		cs[i] = comps[i]
	}
	wireBundled(s, rng, cs, func(i int) (func(core.Port), core.Sink) {
		c, p := comps[i], len(comps[i].ports)
		c.ports = append(c.ports, nil)
		return func(port core.Port) { c.ports[p] = port }, c.sink(p)
	})
	return s, comps
}

// blocked places n components on two groups: the first half and the rest.
func blocked(n int) decomp.Placement {
	g := make([]int, n)
	for i := n / 2; i < n; i++ {
		g[i] = 1
	}
	return decomp.Placement{Name: "blocked2", Groups: g}
}

// maxBundleShare plans p on s and returns the most channels any one sync
// bundle carries.
func maxBundleShare(tb testing.TB, s *orch.Simulation, p decomp.Placement) int {
	tb.Helper()
	pl, err := s.Plan(p)
	if err != nil {
		tb.Fatalf("Plan(%v): %v", p.Groups, err)
	}
	per := map[int]int{}
	most := 0
	for _, ch := range pl.Channels {
		if ch.Bundle >= 0 {
			per[ch.Bundle]++
			most = max(most, per[ch.Bundle])
		}
	}
	return most
}

type buildFn func(seed uint64, nComps int) (*orch.Simulation, []*chatter)

// execute plans p on s, executes the plan under o, and returns the result
// with the total number of scheduler events processed across groups.
func execute(tb testing.TB, s *orch.Simulation, p decomp.Placement, end sim.Time, o orch.RunOptions) (*orch.RunResult, uint64) {
	tb.Helper()
	pl, err := s.Plan(p)
	if err != nil {
		tb.Fatalf("Plan(%v): %v", p.Groups, err)
	}
	res, err := pl.Execute(end, o)
	if err != nil {
		tb.Fatalf("Execute(%v, %+v): %v", p.Groups, o, err)
	}
	return res, processed(res)
}

// processed is the number of scheduler events res's groups processed.
func processed(res *orch.RunResult) uint64 {
	var events uint64
	for _, sc := range res.Scheds {
		events += sc.Processed()
	}
	return events
}

// runPlaced builds a fresh simulation, runs it under p (or sequentially
// when p is nil), and returns per-component traces plus the total number of
// scheduler events processed.
func runPlaced(t *testing.T, build buildFn, seed uint64, nComps int, end sim.Time, p *decomp.Placement) ([][]string, uint64) {
	t.Helper()
	s, comps := build(seed, nComps)
	var events uint64
	if p == nil {
		sched := s.RunSequential(end)
		events = sched.Processed()
	} else {
		if err := s.RunParallel(end, *p); err != nil {
			t.Fatalf("RunParallel(%v): %v", p.Groups, err)
		}
		for _, r := range s.Group.Runners {
			events += r.Scheduler().Processed()
		}
	}
	traces := make([][]string, len(comps))
	for i, c := range comps {
		traces[i] = c.trace
	}
	return traces, events
}

// TestPlacementDeterminism is the tentpole's acceptance property: for a
// fixed configuration and seed, RunCoupled under ANY placement — per
// component, fully co-located, or random co-locations in between — is
// bit-identical to RunSequential, including the number of scheduler events
// processed.
func TestPlacementDeterminism(t *testing.T) {
	const end = 3 * sim.Millisecond
	builders := []struct {
		name  string
		build buildFn
	}{
		{"direct", buildRandom},
		{"trunked", buildTrunked},
		{"bundled", buildBundled},
	}
	for _, bld := range builders {
		for seed := uint64(1); seed <= 4; seed++ {
			bld, seed := bld, seed
			t.Run(fmt.Sprintf("%s/seed%d", bld.name, seed), func(t *testing.T) {
				nComps := 3 + int(seed)%5
				refTraces, refEvents := runPlaced(t, bld.build, seed, nComps, end, nil)
				if refEvents == 0 {
					t.Fatal("sequential run processed no events")
				}

				placements := []decomp.Placement{
					decomp.PerComponent(nComps),
					decomp.SingleGroup(nComps),
					blocked(nComps),
				}
				prng := sim.NewRand(seed * 7919)
				for k := 0; k < 4; k++ {
					g := 1 + prng.Intn(nComps)
					groups := make([]int, nComps)
					for i := range groups {
						groups[i] = prng.Intn(g)
					}
					placements = append(placements,
						decomp.Placement{Name: fmt.Sprintf("rand%d", k), Groups: groups})
				}

				for _, p := range placements {
					p := p
					traces, events := runPlaced(t, bld.build, seed, nComps, end, &p)
					if events != refEvents {
						t.Errorf("placement %s %v: %d events, sequential %d",
							p.Name, p.Groups, events, refEvents)
					}
					for i := range traces {
						if !equalSlices(traces[i], refTraces[i]) {
							t.Fatalf("placement %s %v: component %d trace diverged from sequential",
								p.Name, p.Groups, i)
						}
					}
				}
			})
		}
	}
}

// TestAutoPlacementMatchesSequential closes the feedback loop end to end: a
// profiler-recommended placement, derived from a sequential run's model
// graph, replays bit-identically.
func TestAutoPlacementMatchesSequential(t *testing.T) {
	const end = 3 * sim.Millisecond
	const seed, nComps = 3, 6

	s, comps := buildRandom(seed, nComps)
	s.RunSequential(end)
	mc, ml := s.ModelGraph(end)
	auto := decomp.AutoPlace(mc, ml, decomp.DefaultParams(end))

	refTraces := make([][]string, len(comps))
	for i, c := range comps {
		refTraces[i] = c.trace
	}

	traces, _ := runPlaced(t, buildRandom, seed, nComps, end, &auto)
	for i := range traces {
		if !equalSlices(traces[i], refTraces[i]) {
			t.Fatalf("auto placement %v: component %d diverged", auto.Groups, i)
		}
	}
}

// TestModelGraphAfterCoupled pins the satellite fix: a coupled run must
// yield the same per-link message counts as a sequential run, not silent
// zeros from nil sequential ports. The blocked row cuts several channels at
// one latency, so they share one endpoint pair: each must still count only
// its own sub-channel.
func TestModelGraphAfterCoupled(t *testing.T) {
	const end = 2 * sim.Millisecond
	for _, row := range []struct {
		name  string
		build buildFn
		place func(n int) decomp.Placement
	}{
		{"direct", buildRandom, decomp.PerComponent},
		{"trunked", buildTrunked, decomp.PerComponent},
		{"blocked", buildBundled, blocked},
	} {
		t.Run(row.name, func(t *testing.T) {
			s1, _ := row.build(5, 4)
			s1.RunSequential(end)
			_, seqLinks := s1.ModelGraph(end)

			s2, _ := row.build(5, 4)
			p := row.place(4)
			if row.name == "blocked" && maxBundleShare(t, s2, p) < 2 {
				t.Fatal("no two channels share a sync bundle: the row tests nothing")
			}
			if err := s2.RunParallel(end, p); err != nil {
				t.Fatal(err)
			}
			_, cplLinks := s2.ModelGraph(end)

			if len(seqLinks) != len(cplLinks) {
				t.Fatalf("link count %d vs %d", len(seqLinks), len(cplLinks))
			}
			var total uint64
			for i := range seqLinks {
				if cplLinks[i].Msgs != seqLinks[i].Msgs {
					t.Errorf("link %d: coupled %d msgs, sequential %d",
						i, cplLinks[i].Msgs, seqLinks[i].Msgs)
				}
				total += cplLinks[i].Msgs
			}
			if total == 0 {
				t.Fatal("coupled ModelGraph reported zero messages on every link")
			}
		})
	}
}

// TestModelGraphFoldsParallelChannels: the model prices the bundles the
// executor runs, so two channels between one component pair at one latency
// are one model link carrying both channels' messages, and at two latencies
// they are two links.
func TestModelGraphFoldsParallelChannels(t *testing.T) {
	const end = sim.Millisecond
	for _, lats := range [][2]sim.Time{{sim.Microsecond, sim.Microsecond}, {sim.Microsecond, 3 * sim.Microsecond}} {
		s := orch.New()
		var c [2]*chatter
		for x := range c {
			c[x] = &chatter{name: fmt.Sprintf("c%d", x), period: 10 * sim.Microsecond, rng: sim.NewRand(uint64(x + 1))}
			s.Add(c[x])
		}
		for i, lat := range lats {
			var sd [2]orch.Side
			for x, cx := range c {
				cx.ports = append(cx.ports, nil)
				sd[x] = orch.Side{Comp: cx, Bind: func(p core.Port) { cx.ports[i] = p }, Sink: cx.sink(i)}
			}
			s.Connect(fmt.Sprintf("ch%d", i), lat, sd[0], sd[1])
		}
		s.RunSequential(end)
		_, links := s.ModelGraph(end)
		want := 2
		if lats[0] == lats[1] {
			want = 1
		}
		if len(links) != want {
			t.Fatalf("latencies %v: %d model links, want %d", lats, len(links), want)
		}
		var msgs uint64
		for _, l := range links {
			if l.Msgs == 0 || l.A != 0 || l.B != 1 {
				t.Errorf("latencies %v: link %+v, want c0-c1 with messages", lats, l)
			}
			msgs += l.Msgs
		}
		if sent := uint64(c[0].seq + c[1].seq); msgs != sent {
			t.Errorf("latencies %v: model links carry %d messages, components sent %d", lats, msgs, sent)
		}
	}
}

// TestPlanDescribes checks the inspectable plan surface: channel
// classification follows the placement, and rendering mentions the groups.
func TestPlanDescribes(t *testing.T) {
	s, _ := buildRandom(2, 4)

	if _, err := s.Plan(decomp.Placement{Name: "short", Groups: []int{0}}); err == nil {
		t.Fatal("undersized placement not rejected")
	}

	pl, err := s.Plan(decomp.Placement{Name: "half", Groups: []int{0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", pl.NumGroups())
	}
	for _, ch := range pl.Channels {
		wantIntra := ch.GroupA == ch.GroupB
		if ch.Intra != wantIntra {
			t.Errorf("channel %s: Intra=%v with groups %d-%d", ch.Name, ch.Intra, ch.GroupA, ch.GroupB)
		}
	}
	out := pl.String()
	for _, want := range []string{"plan \"half\"", "4 components", "2 groups", "channel", "runner"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}

	// Cut channels share a sync bundle exactly when they join the same two
	// groups at the same latency; a co-located channel rides none.
	bs := orch.New()
	var cs [3]*chatter
	for i := range cs {
		cs[i] = &chatter{name: fmt.Sprintf("p%d", i), period: sim.Millisecond, rng: sim.NewRand(uint64(i))}
		bs.Add(cs[i])
	}
	side := func(c *chatter) orch.Side { return orch.Side{Comp: c, Bind: func(core.Port) {}, Sink: c.sink(0)} }
	lagged := func(c *chatter) orch.Side {
		sd := side(c)
		sd.Sink = lagSink{sd.Sink, 300 * sim.Nanosecond}
		return sd
	}
	bs.Connect("x", sim.Microsecond, side(cs[0]), lagged(cs[1]))
	bs.Connect("y", sim.Microsecond, side(cs[1]), side(cs[0]))
	bs.Connect("z", 2*sim.Microsecond, side(cs[0]), lagged(cs[1]))
	bs.Connect("w", sim.Microsecond, side(cs[0]), side(cs[2]))
	bpl, err := bs.Plan(decomp.Placement{Name: "cut", Groups: []int{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	x, y, z, w := bpl.Channels[0], bpl.Channels[1], bpl.Channels[2], bpl.Channels[3]
	if x.Bundle < 0 || x.Bundle != y.Bundle {
		t.Errorf("equal-latency cut channels x, y ride bundles %d, %d; want one shared", x.Bundle, y.Bundle)
	}
	if z.Bundle < 0 || z.Bundle == x.Bundle {
		t.Errorf("cut channel z at another latency rides bundle %d, x rides %d; want its own", z.Bundle, x.Bundle)
	}
	if w.Bundle != -1 {
		t.Errorf("co-located channel w rides bundle %d, want -1", w.Bundle)
	}
	// Lookahead adds the receiving side's least lag: z's lagged end B alone
	// on its bundle gains it, while x's is held at latency by y's lag-0 sink
	// on the same bundle side.
	if want := [2]sim.Time{2 * sim.Microsecond, 2300 * sim.Nanosecond}; z.Lookahead != want {
		t.Errorf("z lookahead %v, want %v", z.Lookahead, want)
	}
	if want := [2]sim.Time{sim.Microsecond, sim.Microsecond}; x.Lookahead != want {
		t.Errorf("x lookahead %v, want %v", x.Lookahead, want)
	}
	if w.Lookahead != [2]sim.Time{} {
		t.Errorf("co-located w lookahead %v, want none", w.Lookahead)
	}
	out = bpl.String()
	for _, want := range []string{"3 coupled on 2 sync bundles, 1 co-located", "bundle", "lookahead a>b", "2.300us"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}

	seq, err := s.Plan(decomp.SingleGroup(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range seq.Channels {
		if !ch.Intra {
			t.Errorf("single-group plan has coupled channel %s", ch.Name)
		}
	}
}

// lagSink gives a sink a reaction lag (core.Lagger).
type lagSink struct {
	core.Sink
	lag sim.Time
}

func (l lagSink) Lag() sim.Time { return l.lag }
