package orch_test

import (
	"fmt"
	"runtime"
	"testing"

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
	_, events := execute(t, s, p, end, orch.RunOptions{Mode: orch.Parallel})
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
