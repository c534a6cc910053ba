package memsim

import (
	"repro/internal/core"
	"repro/internal/orch"
	"repro/internal/sim"
)

// envPort delivers messages through the owning component's own environment
// after a fixed latency plus the sink's reaction lag — the in-process
// stand-in for a channel inside the monolithic instantiation. Timing
// matches the split instantiation exactly.
type envPort struct {
	env  *core.Env
	lat  sim.Time
	sink core.Sink
}

func (p envPort) Send(m core.Message) {
	// A typed delivery event (not a closure): it serializes into
	// checkpoints by sink position and payload codec.
	p.env.PostDelivery(p.env.Now()+p.lat+core.LagOf(p.sink), p.sink, m)
}

// Monolithic runs n cores plus the memory controller inside a single
// simulator component — sequential gem5. All simulation cost lands in one
// account, which is why the sequential simulator cannot benefit from more
// host cores.
type Monolithic struct {
	name  string
	env   core.Env
	cost  core.CostAccount
	cores []*Core
	mem   *Mem
}

// NewMonolithic creates the sequential instantiation.
func NewMonolithic(name string, n int, p Params) *Monolithic {
	m := &Monolithic{name: name, mem: NewMem(p)}
	m.mem.UseCost(&m.cost)
	for i := 0; i < n; i++ {
		c := NewCore(i, p)
		c.UseCost(&m.cost)
		m.cores = append(m.cores, c)
	}
	return m
}

// Name implements core.Component.
func (m *Monolithic) Name() string { return m.name }

// Cores returns the embedded cores (for progress inspection).
func (m *Monolithic) Cores() []*Core { return m.cores }

// Mem returns the embedded controller.
func (m *Monolithic) Mem() *Mem { return m.mem }

// Cost implements core.Coster: the single account all pieces charge.
func (m *Monolithic) Cost() *core.CostAccount { return &m.cost }

// TimeTaxNsPerVirtualUs aggregates the per-piece idle costs, since the one
// process simulates everything.
func (m *Monolithic) TimeTaxNsPerVirtualUs() float64 {
	return float64(len(m.cores))*50 + 20
}

// Attach implements core.Component.
func (m *Monolithic) Attach(env core.Env) {
	m.env = env
	m.mem.Attach(env)
	for _, c := range m.cores {
		c.Attach(env)
	}
	p := m.mem.p
	for i, c := range m.cores {
		c.BindMem(envPort{env: &m.env, lat: p.MemLatency, sink: m.mem.ReqSink()})
		m.mem.BindCore(i, envPort{env: &m.env, lat: p.MemLatency, sink: c.MemSink()})
	}
}

// Start implements core.Component.
func (m *Monolithic) Start(end sim.Time) {
	m.mem.Start(end)
	for _, c := range m.cores {
		c.Start(end)
	}
}

// BuildSplit registers n core components plus the memory controller on s
// and connects each core to the controller with a channel whose latency is
// the interconnect latency — the SplitSim-parallelized instantiation.
func BuildSplit(s *orch.Simulation, n int, p Params) ([]*Core, *Mem) {
	mem := NewMem(p)
	s.Add(mem)
	var cores []*Core
	for i := 0; i < n; i++ {
		c := NewCore(i, p)
		s.Add(c)
		cores = append(cores, c)
	}
	for i, c := range cores {
		i, c := i, c
		s.Connect(c.Name()+".mem", p.MemLatency,
			orch.Side{Comp: c, Bind: c.BindMem, Sink: c.MemSink()},
			orch.Side{Comp: mem, Bind: func(port core.Port) { mem.BindCore(i, port) }, Sink: mem.ReqSink()})
	}
	return cores, mem
}
