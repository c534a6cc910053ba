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
// pairs are connected by a trunk carrying several logical links, so placed
// runs exercise both trunk wirings (direct ports intra-group, multiplexed
// channel cross-group).
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
		pairs := make([]orch.TrunkPair, nPairs)
		for j := 0; j < nPairs; j++ {
			pa, pb := len(ca.ports), len(cb.ports)
			ca.ports = append(ca.ports, nil)
			cb.ports = append(cb.ports, nil)
			pairs[j] = orch.TrunkPair{
				BindA: func(p core.Port) { ca.ports[pa] = p },
				SinkA: ca.sink(pa),
				BindB: func(p core.Port) { cb.ports[pb] = p },
				SinkB: cb.sink(pb),
			}
		}
		lat := sim.Time(2+rng.Intn(10)) * sim.Microsecond
		s.ConnectTrunk(fmt.Sprintf("trunk%d", i), lat, ca, cb, pairs)
	}
	return s, comps
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
	var events uint64
	for _, sc := range res.Scheds {
		events += sc.Processed()
	}
	return res, events
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
	auto := decomp.AutoPlace(mc, ml, decomp.DefaultParams(end), decomp.RecommendOptions{})

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
// zeros from nil sequential ports.
func TestModelGraphAfterCoupled(t *testing.T) {
	const end = 2 * sim.Millisecond
	for _, bld := range []struct {
		name  string
		build buildFn
	}{
		{"direct", buildRandom},
		{"trunked", buildTrunked},
	} {
		bld := bld
		t.Run(bld.name, func(t *testing.T) {
			s1, _ := bld.build(5, 4)
			s1.RunSequential(end)
			_, seqLinks := s1.ModelGraph(end)

			s2, _ := bld.build(5, 4)
			if err := s2.RunCoupled(end); err != nil {
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
