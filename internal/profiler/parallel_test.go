package profiler

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
)

// TestParallelProfilingRace is the parallel-executor audit for the
// profiler's sampled timing: four runner goroutines with GOMAXPROCS >= 4,
// each sampling its own ProcNanos/WaitNanos
// epochs through an attached Collector while the endpoint counters
// (Tx/Rx/Proc/Wait/PeakDepth/Parks) tick on both sides of every
// channel. Run with -race: the epoch state (procTick/waitTick) is
// per-Runner and the endpoint counters are single-writer (the owning
// runner), and this test is the proof that stays true when the runners are
// genuinely concurrent. The post-run Counters()/Samples() aggregation
// happens-after the group's WaitGroup, so reading it here is also part of
// the contract under test.
//
// (The profiler package cannot import orch — orch imports decomp which
// imports profiler — so the group is built on the link fabric directly,
// exactly as orch's executor does.)
func TestParallelProfilingRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	c := NewCollector()
	g := &link.Group{}
	const n = 4
	runners := make([]*link.Runner, n)
	for i := 0; i < n; i++ {
		runners[i] = link.NewRunner(fmt.Sprintf("p%d", i), sim.NewScheduler(int32(i+1)))
	}
	// Ring of channels so every runner synchronizes with two peers, plus
	// periodic traffic so Proc/Wait sampling sees real work.
	for i := 0; i < n; i++ {
		ch := link.NewChannel(fmt.Sprintf("c%d", i), 2*sim.Microsecond)
		a, b := ch.SideA(), ch.SideB()
		runners[i].Attach(a)
		runners[(i+1)%n].Attach(b)
		a.SetSink(0, int32(100+i), core.SinkFunc(func(sim.Time, core.Message) {}))
		b.SetSink(0, int32(200+i), core.SinkFunc(func(sim.Time, core.Message) {}))
		sched := runners[i].Scheduler()
		var tick func()
		tick = func() {
			a.Send(pingMsg{})
			sched.After(5*sim.Microsecond, tick)
		}
		sched.After(sim.Microsecond, tick)
		g.Add(runners[i])
	}
	c.Attach(g, 20*sim.Microsecond)

	if err := g.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	if len(c.Samples()) == 0 {
		t.Fatal("no samples collected from parallel run")
	}
	for i, r := range runners {
		cnt := r.Counters()
		if cnt.TxData == 0 || cnt.RxData == 0 || cnt.TxSync == 0 {
			t.Fatalf("runner %d counters: %+v — no traffic counted", i, cnt)
		}
	}
}

type pingMsg struct{}
