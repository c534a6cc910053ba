package orch_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/orch"
	"repro/internal/sim"
)

// chatter is a component with arbitrarily many ports; it emits a message on
// every port at a component-specific period and logs every delivery. The
// reaction to a delivery (forwarding to a random-ish port) makes message
// orders observable, so any nondeterminism in the runtime shows up as a
// trace difference.
type chatter struct {
	name   string
	env    core.Env
	ports  []core.Port
	period sim.Time
	rng    *sim.Rand
	trace  []string // per-component: appended only from its own scheduler
	seq    int
}

func (c *chatter) Name() string        { return c.name }
func (c *chatter) Attach(env core.Env) { c.env = env }
func (c *chatter) Start(end sim.Time) {
	var tick func()
	tick = func() {
		for i, p := range c.ports {
			c.seq++
			p.Send(chatMsg{from: c.name, port: i, seq: c.seq}, 0)
		}
		c.env.After(c.period, tick)
	}
	c.env.After(c.period/2, tick)
}

func (c *chatter) sink(port int) core.Sink {
	return core.SinkFunc(func(at sim.Time, m core.Message) {
		msg := m.(chatMsg)
		c.trace = append(c.trace,
			fmt.Sprintf("%s<-%s.%d#%d@%v", c.name, msg.from, msg.port, msg.seq, at))
		// Occasionally forward, creating cross-channel causality.
		if c.rng.Float64() < 0.3 && len(c.ports) > 0 {
			c.seq++
			c.ports[c.rng.Intn(len(c.ports))].Send(chatMsg{from: c.name, port: -1, seq: c.seq}, 0)
		}
	})
}

type chatMsg struct {
	from string
	port int
	seq  int
}

// buildRandom creates a random connected component graph.
func buildRandom(seed uint64, nComps int) (*orch.Simulation, []*chatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*chatter, nComps)
	for i := range comps {
		comps[i] = &chatter{
			name:   fmt.Sprintf("c%d", i),
			period: sim.Time(50+rng.Intn(100)) * sim.Microsecond,
			rng:    sim.NewRand(seed ^ uint64(i)*0x9e37),
		}
		s.Add(comps[i])
	}
	connect := func(a, b int) {
		ca, cb := comps[a], comps[b]
		pa, pb := len(ca.ports), len(cb.ports)
		ca.ports = append(ca.ports, nil)
		cb.ports = append(cb.ports, nil)
		lat := sim.Time(1+rng.Intn(20)) * sim.Microsecond
		s.Connect(fmt.Sprintf("ch%d.%d-%d.%d", a, pa, b, pb), lat,
			orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[pa] = p }, Sink: ca.sink(pa)},
			orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[pb] = p }, Sink: cb.sink(pb)})
	}
	// Spanning tree for connectivity plus random extra edges.
	for i := 1; i < nComps; i++ {
		connect(rng.Intn(i), i)
	}
	for k := 0; k < nComps/2; k++ {
		a, b := rng.Intn(nComps), rng.Intn(nComps)
		if a != b {
			connect(a, b)
		}
	}
	return s, comps
}

// TestRandomGraphDeterminism is the runtime's load-bearing property under
// fuzzing: for random component graphs, coupled execution equals
// sequential execution exactly, and both are stable across repetitions.
func TestRandomGraphDeterminism(t *testing.T) {
	const end = 3 * sim.Millisecond
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			nComps := 2 + int(seed)%6

			s1, comps1 := buildRandom(seed, nComps)
			s1.RunSequential(end)

			s2, comps2 := buildRandom(seed, nComps)
			if err := s2.RunCoupled(end); err != nil {
				t.Fatal(err)
			}

			total := 0
			for i := range comps1 {
				total += len(comps1[i].trace)
				if !equalSlices(comps1[i].trace, comps2[i].trace) {
					t.Fatalf("component %s trace diverged between modes", comps1[i].name)
				}
			}
			if total == 0 {
				t.Fatal("empty traces")
			}

			// Stability across repetitions of coupled mode.
			s3, comps3 := buildRandom(seed, nComps)
			if err := s3.RunCoupled(end); err != nil {
				t.Fatal(err)
			}
			for i := range comps2 {
				if !equalSlices(comps2[i].trace, comps3[i].trace) {
					t.Fatalf("component %s diverged across coupled runs", comps2[i].name)
				}
			}
		})
	}
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
