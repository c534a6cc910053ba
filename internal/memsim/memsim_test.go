package memsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/orch"
	"repro/internal/sim"
)

func runMono(n int, p Params, end sim.Time) *Monolithic {
	m := NewMonolithic("gem5", n, p)
	s := orch.New()
	s.Add(m)
	s.RunSequential(end)
	return m
}

func runSplit(t *testing.T, n int, p Params, end sim.Time, coupled bool) ([]*Core, *Mem) {
	s := orch.New()
	cores, mem := BuildSplit(s, n, p)
	if coupled {
		if err := s.RunCoupled(end); err != nil {
			t.Fatal(err)
		}
	} else {
		s.RunSequential(end)
	}
	return cores, mem
}

func TestSplitMatchesMonolithic(t *testing.T) {
	p := DefaultParams()
	const n = 4
	const end = 2 * sim.Millisecond
	mono := runMono(n, p, end)
	cores, mem := runSplit(t, n, p, end, false)
	for i, c := range cores {
		if c.Blocks != mono.Cores()[i].Blocks {
			t.Fatalf("core %d: split %d blocks != monolithic %d",
				i, c.Blocks, mono.Cores()[i].Blocks)
		}
		if c.StallTime != mono.Cores()[i].StallTime {
			t.Fatalf("core %d: stall time diverged: %v vs %v",
				i, c.StallTime, mono.Cores()[i].StallTime)
		}
	}
	if mem.Txns != mono.Mem().Txns {
		t.Fatalf("txns: split %d != monolithic %d", mem.Txns, mono.Mem().Txns)
	}
	if mono.Cores()[0].Blocks == 0 {
		t.Fatal("no progress simulated")
	}
}

func TestSplitCoupledMatchesSequential(t *testing.T) {
	p := DefaultParams()
	const n = 3
	const end = 1 * sim.Millisecond
	seqCores, seqMem := runSplit(t, n, p, end, false)
	cplCores, cplMem := runSplit(t, n, p, end, true)
	for i := range seqCores {
		if seqCores[i].Blocks != cplCores[i].Blocks {
			t.Fatalf("core %d blocks: seq %d != coupled %d",
				i, seqCores[i].Blocks, cplCores[i].Blocks)
		}
	}
	if seqMem.Txns != cplMem.Txns {
		t.Fatalf("mem txns: seq %d != coupled %d", seqMem.Txns, cplMem.Txns)
	}
}

func TestMemoryContentionSlowsCores(t *testing.T) {
	p := DefaultParams()
	const end = 1 * sim.Millisecond
	few, _ := runSplit(t, 2, p, end, false)
	many, manyMem := runSplit(t, 32, p, end, false)
	if many[0].Blocks >= few[0].Blocks {
		t.Fatalf("32-core per-core progress %d should trail 2-core %d (shared memory)",
			many[0].Blocks, few[0].Blocks)
	}
	if many[0].StallTime == 0 {
		t.Fatal("no memory stalls under contention")
	}
	// With 32 cores the controller should be near saturation.
	util := float64(manyMem.Txns) * p.MemService.Seconds() / end.Seconds()
	if util < 0.9 {
		t.Fatalf("memory utilization %.2f, want near saturation", util)
	}
}

func TestCostAccountingSeparatesComponents(t *testing.T) {
	p := DefaultParams()
	const end = 500 * sim.Microsecond
	cores, mem := runSplit(t, 4, p, end, false)
	for _, c := range cores {
		if c.Cost().BusyNanos() == 0 {
			t.Fatal("core accounted no cost")
		}
	}
	if mem.Cost().BusyNanos() == 0 {
		t.Fatal("mem accounted no cost")
	}
	mono := runMono(4, p, end)
	var split uint64
	for _, c := range cores {
		split += c.Cost().BusyNanos()
	}
	split += mem.Cost().BusyNanos()
	if mono.Cost().BusyNanos() != split {
		t.Fatalf("total cost: monolithic %d != split sum %d",
			mono.Cost().BusyNanos(), split)
	}
}

func TestBlockTime(t *testing.T) {
	p := DefaultParams() // 400 instr @ 4GHz, CPI 1 => 100ns
	if bt := p.BlockTime(); bt != 100*sim.Nanosecond {
		t.Fatalf("BlockTime = %v, want 100ns", bt)
	}
}

func TestCoreRequiresOrderedResponses(t *testing.T) {
	c := NewCore(0, DefaultParams())
	s := sim.NewScheduler(0)
	c.Attach(core.Env{Sched: s, Src: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order response should panic")
		}
	}()
	c.onResp(0, &MemResp{Core: 0, ID: 99})
}
