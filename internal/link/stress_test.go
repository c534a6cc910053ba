package link

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestManyRunnerRing runs a ring of runners passing tokens: a stress shape
// with cyclic dependencies, where conservative synchronization deadlocks if
// any progress rule is wrong.
func TestManyRunnerRing(t *testing.T) {
	const n = 12
	g := &Group{}
	runners := make([]*Runner, n)
	chans := make([]*Channel, n)
	for i := 0; i < n; i++ {
		runners[i] = NewRunner(fmt.Sprintf("r%d", i), sim.NewScheduler(int32(i+1)))
	}
	received := make([]int, n)
	for i := 0; i < n; i++ {
		chans[i] = NewChannel(fmt.Sprintf("c%d", i), 500*sim.Nanosecond)
		runners[i].Attach(chans[i].SideA())       // i sends to i+1
		runners[(i+1)%n].Attach(chans[i].SideB()) // i+1 receives from i
	}
	for i := 0; i < n; i++ {
		i := i
		prev := chans[(i+n-1)%n].SideB() // messages from predecessor
		next := chans[i].SideA()         // toward successor
		prev.SetSink(0, int32(100+i), core.SinkFunc(func(at sim.Time, m core.Message) {
			received[i]++
			// Forward the token onward.
			next.Send(m, 0)
		}))
		chans[i].SideA().SetSink(0, int32(200+i), core.SinkFunc(func(sim.Time, core.Message) {}))
		g.Add(runners[i])
	}
	// Seed one token from runner 0 at t=0.
	seed := &seeder{port: chans[0].SideA()}
	runners[0].AddComponent(seed, 50)

	if err := g.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Token circulates: 2ms / (n * 500ns) = ~333 laps.
	for i, r := range received {
		if r < 100 {
			t.Fatalf("node %d saw the token only %d times — ring stalled", i, r)
		}
	}
}

type seeder struct {
	env  core.Env
	port core.Port
}

func (s *seeder) Name() string        { return "seed" }
func (s *seeder) Attach(env core.Env) { s.env = env }
func (s *seeder) Start(end sim.Time) {
	s.env.At(0, func() { s.port.Send(testMsg{seq: 0, from: "seed"}, 0) })
}

// TestEndpointLabels covers the introspection surface the profiler uses.
func TestEndpointLabels(t *testing.T) {
	ch := NewChannel("wire", sim.Microsecond)
	ra := NewRunner("alpha", sim.NewScheduler(1))
	rb := NewRunner("beta", sim.NewScheduler(2))
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	if ch.SideA().Label() != "wire.a" || ch.SideB().Label() != "wire.b" {
		t.Fatal("labels")
	}
	if ch.SideA().PeerRunnerName() != "beta" || ch.SideB().PeerRunnerName() != "alpha" {
		t.Fatal("peer runner names")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	ch := NewChannel("x", sim.Microsecond)
	ra := NewRunner("a", sim.NewScheduler(1))
	rb := NewRunner("b", sim.NewScheduler(2))
	ra.Attach(ch.SideA())
	defer func() {
		if recover() == nil {
			t.Fatal("double attach should panic")
		}
	}()
	rb.Attach(ch.SideA())
}

func TestRunnerWithoutEndpointsFinishes(t *testing.T) {
	r := NewRunner("solo", sim.NewScheduler(1))
	count := 0
	r.AddComponent(&ticker{n: &count}, 5)
	g := &Group{}
	g.Add(r)
	if err := g.Run(1 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("component never ran")
	}
}

type ticker struct {
	env core.Env
	n   *int
}

func (t *ticker) Name() string        { return "ticker" }
func (t *ticker) Attach(env core.Env) { t.env = env }
func (t *ticker) Start(end sim.Time) {
	var tick func()
	tick = func() {
		*t.n++
		t.env.After(100*sim.Microsecond, tick)
	}
	t.env.At(0, tick)
}
