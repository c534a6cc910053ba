package orch_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/orch"
	"repro/internal/sim"
)

// runParallelTrial builds a fresh simulation and runs it with the
// multi-core executor under p, returning per-component traces and the total
// scheduler events processed.
func runParallelTrial(t *testing.T, build buildFn, seed uint64, nComps int, end sim.Time, p decomp.Placement) ([][]string, uint64) {
	t.Helper()
	s, comps := build(seed, nComps)
	_, events := execute(t, s, p, end, orch.RunOptions{})
	traces := make([][]string, len(comps))
	for i, c := range comps {
		traces[i] = c.trace
	}
	return traces, events
}

// gomaxprocsSweep is the satellite's required sweep: the executor must be
// bit-identical to sequential whether it gets one core, a few, or the whole
// machine. Duplicates (NumCPU may be 1, 2, or 4) are dropped.
func gomaxprocsSweep() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range []int{1, 2, 4, runtime.NumCPU()} {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// TestParallelDigestMatchesSequential is the tentpole's acceptance
// property: RunParallel — concurrent runner goroutines, batched horizon
// windows, yield-then-park blocking and all — produces bit-identical
// per-component traces and scheduler event counts to RunSequential, for
// random placements, at every GOMAXPROCS level. Sync pacing and thread
// placement must never schedule or reorder a simulation event.
func TestParallelDigestMatchesSequential(t *testing.T) {
	const end = 2 * sim.Millisecond
	builders := []struct {
		name  string
		build buildFn
	}{
		{"direct", buildRandom},
		{"trunked", buildTrunked},
		{"bundled", buildBundled},
	}
	for _, procs := range gomaxprocsSweep() {
		procs := procs
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, bld := range builders {
				for seed := uint64(1); seed <= 2; seed++ {
					nComps := 4 + int(seed)
					refTraces, refEvents := runPlaced(t, bld.build, seed, nComps, end, nil)
					if refEvents == 0 {
						t.Fatal("sequential run processed no events")
					}

					placements := []decomp.Placement{
						decomp.PerComponent(nComps),
						decomp.SingleGroup(nComps),
						blocked(nComps),
					}
					prng := sim.NewRand(seed * 104729)
					for k := 0; k < 2; k++ {
						groups := make([]int, nComps)
						for i := range groups {
							groups[i] = prng.Intn(1 + prng.Intn(nComps))
						}
						placements = append(placements,
							decomp.Placement{Name: fmt.Sprintf("rand%d", k), Groups: groups})
					}

					for _, p := range placements {
						traces, events := runParallelTrial(t, bld.build, seed, nComps, end, p)
						if events != refEvents {
							t.Errorf("%s/seed%d %s: %d events, sequential %d",
								bld.name, seed, p.Name, events, refEvents)
						}
						for i := range traces {
							if !equalSlices(traces[i], refTraces[i]) {
								t.Fatalf("%s/seed%d %s: trace of comp %d diverged from sequential",
									bld.name, seed, p.Name, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestPinCount holds the executor's pin count at zero. Execute used to lock
// min(groups, GOMAXPROCS) runners to OS threads under Parallel; every runner
// group is now a plain goroutine in every mode, so the old groups ×
// GOMAXPROCS table is one behaviour: each cell — one P, and more groups than
// Ps, included — completes a Parallel run with the sequential traces and
// event count. Eight groups on one P is the cell where a blocked runner's
// yields are the only way its peers get to run.
func TestPinCount(t *testing.T) {
	const (
		nComps = 8
		end    = sim.Millisecond
	)
	refTraces, refEvents := runPlaced(t, buildRandom, 3, nComps, end, nil)
	sizes := []int{1, 2, 4, 8}
	for _, groups := range sizes {
		p := decomp.Placement{Name: fmt.Sprintf("rr%d", groups), Groups: make([]int, nComps)}
		for i := range p.Groups {
			p.Groups[i] = i % groups
		}
		for _, procs := range sizes {
			t.Run(fmt.Sprintf("groups%d/procs%d", groups, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				traces, events := runParallelTrial(t, buildRandom, 3, nComps, end, p)
				if events != refEvents {
					t.Errorf("%d events, sequential %d", events, refEvents)
				}
				for i := range traces {
					if !equalSlices(traces[i], refTraces[i]) {
						t.Fatalf("trace of comp %d diverged from sequential", i)
					}
				}
			})
		}
	}
}

// TestParallelFramesDrained runs the pooled-frame packet path under the
// multi-core executor: every frame borrowed from the pool must be returned
// once the run (including the post-run in-flight sweep) completes, and the
// delivered packet count must match the sequential run.
func TestParallelFramesDrained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))

	ref, _, refH2 := twoNets()
	ref.RunSequential(2 * sim.Millisecond)
	if refH2.RxPackets == 0 {
		t.Fatal("sequential reference delivered no packets")
	}

	s, h1, h2 := twoNets()
	if err := s.RunParallel(2*sim.Millisecond, decomp.PerComponent(2)); err != nil {
		t.Fatal(err)
	}
	if h2.RxPackets != refH2.RxPackets {
		t.Fatalf("parallel delivered %d packets, sequential %d", h2.RxPackets, refH2.RxPackets)
	}
	if h1.TxPackets != h2.RxPackets {
		t.Fatalf("tx %d != rx %d", h1.TxPackets, h2.RxPackets)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d pooled frames leaked after parallel run", live)
	}
}

// TestHostModelParams checks the placement recommender's host tuning: the
// core budget tracks GOMAXPROCS but never exceeds the CPUs that exist, and
// the sync price comes from a real measurement on this machine's fabric.
func TestHostModelParams(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, procs := range []int{1, ncpu, ncpu + 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := orch.HostModelParams(sim.Millisecond).Cores
		runtime.GOMAXPROCS(prev)
		if want := min(procs, ncpu); got != want {
			t.Errorf("GOMAXPROCS %d on %d CPUs: Cores = %d, want %d", procs, ncpu, got, want)
		}
	}
	p := orch.HostModelParams(sim.Millisecond)
	if p.SyncCostNs <= 0 {
		t.Error("SyncCostNs should be measured > 0")
	}
	if p.Duration != sim.Millisecond {
		t.Errorf("Duration = %v", p.Duration)
	}
}

// sparse is a component with many ports that sends one message on each of a
// chosen few, once, and logs which of its sinks received which sender port;
// port i of one end is link i, so sink i receiving another port is misrouted.
type sparse struct {
	name      string
	env       core.Env
	ports     []core.Port
	send      []int
	trace     []string
	misrouted int
}

func (c *sparse) Name() string        { return c.name }
func (c *sparse) Attach(env core.Env) { c.env = env }
func (c *sparse) Start(sim.Time) {
	c.env.After(sim.Microsecond, func() {
		for _, i := range c.send {
			c.ports[i].Send(chatMsg{from: c.name, port: i}, 0)
		}
	})
}

func (c *sparse) sink(i int) core.Sink {
	return core.SinkFunc(func(at sim.Time, m core.Message) {
		msg := m.(chatMsg)
		c.trace = append(c.trace, fmt.Sprintf("%s[%d]<-%s.%d@%v", c.name, i, msg.from, msg.port, at))
		if msg.port != i {
			c.misrouted++
		}
	})
}

// TestParallelBundleOverflow: a message names its sub-channel in 16 bits, so
// when 65,537 channels cross one cut at one latency the first 65,536 share
// bundle 0 and the last opens bundle 1 instead of wrapping to sub 0. A short
// placed run matches sequential, and every message reaches the sink of its
// own channel.
func TestParallelBundleOverflow(t *testing.T) {
	const full = 1 << 16 // channels that fill the first bundle exactly
	const lat = sim.Microsecond
	build := func() (*orch.Simulation, [2]*sparse) {
		s := orch.New()
		var c [2]*sparse
		for x := range c {
			c[x] = &sparse{name: fmt.Sprintf("s%d", x), send: []int{0, full/2 - 1, full / 2, full - 1, full}}
			c[x].ports = make([]core.Port, full+1)
			s.Add(c[x])
		}
		for i := 0; i <= full; i++ {
			s.Connect(fmt.Sprintf("c%d", i), lat,
				orch.Side{Comp: c[0], Bind: func(p core.Port) { c[0].ports[i] = p }, Sink: c[0].sink(i)},
				orch.Side{Comp: c[1], Bind: func(p core.Port) { c[1].ports[i] = p }, Sink: c[1].sink(i)})
		}
		return s, c
	}
	const end = 10 * sim.Microsecond
	ref, refC := build()
	ref.RunSequential(end)
	_, refLinks := ref.ModelGraph(end)

	s, c := build()
	pl, err := s.Plan(decomp.PerComponent(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range pl.Channels {
		if want := i / full; ch.Bundle != want {
			t.Fatalf("channel %d rides bundle %d, want %d", i, ch.Bundle, want)
		}
	}
	if _, err := pl.Execute(end, orch.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Group.Runners[0].Endpoints()); n != 2 {
		t.Errorf("runner has %d endpoints, want 2", n)
	}
	_, links := s.ModelGraph(end)
	for x := range c {
		if len(c[x].trace) != len(c[x].send) {
			t.Fatalf("%s received %d messages, want %d", c[x].name, len(c[x].trace), len(c[x].send))
		}
		if !equalSlices(c[x].trace, refC[x].trace) {
			t.Fatalf("%s trace %v, sequential %v", c[x].name, c[x].trace, refC[x].trace)
		}
		if c[x].misrouted != 0 {
			t.Errorf("%s: %d messages reached another link's sink: %v", c[x].name, c[x].misrouted, c[x].trace)
		}
	}
	for i := range links {
		if links[i].Msgs != refLinks[i].Msgs {
			t.Errorf("link %d: %d msgs, sequential %d", i, links[i].Msgs, refLinks[i].Msgs)
		}
	}
}
