package profiler

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
)

// TestCollectorConcurrentAddAndAttach drives Attach-based sampling from a
// real coupled run while another goroutine calls Add — the pattern an
// experiment harness hits when it merges modeled samples into a live
// collector. Run with -race: before Add took the collector mutex this was a
// data race on the samples slice.
func TestCollectorConcurrentAddAndAttach(t *testing.T) {
	c := NewCollector()
	g := &link.Group{}
	const n = 4
	runners := make([]*link.Runner, n)
	for i := 0; i < n; i++ {
		runners[i] = link.NewRunner(fmt.Sprintf("r%d", i), sim.NewScheduler(int32(i+1)))
	}
	// Ring of channels so every runner has peers to synchronize with.
	for i := 0; i < n; i++ {
		ch := link.NewChannel(fmt.Sprintf("c%d", i), 500*sim.Nanosecond)
		runners[i].Attach(ch.SideA())
		runners[(i+1)%n].Attach(ch.SideB())
		ch.SideA().SetSink(0, int32(100+i), core.SinkFunc(func(sim.Time, core.Message) {}))
		ch.SideB().SetSink(0, int32(200+i), core.SinkFunc(func(sim.Time, core.Message) {}))
		g.Add(runners[i])
	}
	c.Attach(g, 10*sim.Microsecond)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Add(Sample{Sim: "modeled", WallNs: uint64(i), Virt: sim.Time(i)})
		}
	}()
	if err := g.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	<-done

	var modeled, live int
	for _, s := range c.Samples() {
		if s.Sim == "modeled" {
			modeled++
		} else {
			live++
		}
	}
	if modeled != 1000 {
		t.Fatalf("modeled samples = %d, want 1000", modeled)
	}
	if live == 0 {
		t.Fatal("no Attach-driven samples collected")
	}
}
