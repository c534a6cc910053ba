package link

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// loopNode is a pinger built on named events, so a test-side snapshot can
// export its pending events: it sends on every port in bursts of eight ticks
// an interval apart with a long silence after each, records every delivery,
// and forwards every third one out of the next port. Inside a burst a
// speculating peer runs into stragglers, the silences are the empty windows
// a GVT leap skips, and the forwarding makes a mis-speculated delivery order
// visible downstream.
type loopNode struct {
	name     string
	env      core.Env
	ports    []core.Port
	interval sim.Time
	tickH    int32

	ticks, sent, got int
	trace            []string
}

func (n *loopNode) Name() string { return n.name }

func (n *loopNode) Attach(env core.Env) {
	n.env = env
	n.tickH = env.RegisterNamed(n.name+"/tick", n.tick)
}

func (n *loopNode) Start(sim.Time) { n.env.PostNamed(0, n.tickH, sim.NamedArgs{}) }

func (n *loopNode) tick(sim.NamedArgs) {
	for _, p := range n.ports {
		p.Send(testMsg{seq: n.sent, from: n.name}, 0)
		n.sent++
	}
	gap := n.interval
	if n.ticks++; n.ticks%8 == 0 {
		gap *= 40
	}
	n.env.PostNamed(n.env.Now()+gap, n.tickH, sim.NamedArgs{})
}

// sink returns the delivery sink for the given port. It is a pointer, hence
// comparable, like the sinks the orchestrator snapshots by reference.
func (n *loopNode) sink(port int) core.Sink { return &loopSink{n, port} }

type loopSink struct {
	n    *loopNode
	port int
}

func (s *loopSink) Deliver(at sim.Time, m core.Message) {
	n, msg := s.n, m.(testMsg)
	n.trace = append(n.trace, fmt.Sprintf("%s.%d<-%s#%d@%v", n.name, s.port, msg.from, msg.seq, at))
	if n.got++; n.got%3 == 0 {
		n.ports[(s.port+1)%len(n.ports)].Send(testMsg{seq: n.sent, from: n.name}, 0)
		n.sent++
	}
}

// loopSnap is the stub the K > 0 row installs as SpecControl.Snapshot and
// Restore: one node's counters and trace length plus the scheduler's mark
// and pending events — what orch's groupSnap does, without the codec.
type loopSnap struct {
	n                *loopNode
	sched            *sim.Scheduler
	ticks, sent, got int
	traceLen         int
	mark             sim.Mark
	evs              []sim.PendingEvent
}

func (s *loopSnap) snapshot() (err error) {
	s.ticks, s.sent, s.got, s.traceLen = s.n.ticks, s.n.sent, s.n.got, len(s.n.trace)
	s.evs, err = s.sched.ExportPending(s.evs)
	s.mark = s.sched.CaptureMark()
	return err
}

func (s *loopSnap) rollback() error {
	s.sched.RestoreMark(s.mark)
	s.n.ticks, s.n.sent, s.n.got, s.n.trace = s.ticks, s.sent, s.got, s.n.trace[:s.traceLen]
	return s.sched.RestorePending(s.evs)
}

// loopConfig is one row of the mode table: how Run's one loop is armed.
type loopConfig struct {
	name   string
	domain bool // SetSpec on every runner plus a shared SpecDomain
	k      int  // speculation ceiling inside the domain
}

// runLoopChain runs nNodes nodes in a chain, one runner each, under cfg and
// returns every node's delivery trace, the total event count, and the
// speculation counters summed over the runners.
func runLoopChain(t *testing.T, nNodes int, cfg loopConfig, end sim.Time) ([][]string, uint64, SpecCounters) {
	t.Helper()
	g := &Group{}
	nodes := make([]*loopNode, nNodes)
	for i := range nodes {
		nodes[i] = &loopNode{name: fmt.Sprintf("n%d", i), interval: sim.Time(90+20*i) * sim.Nanosecond}
		r := NewRunner(nodes[i].name, sim.NewScheduler(int32(i+1)))
		g.Add(r)
	}
	for i := 1; i < nNodes; i++ {
		ch := NewChannel(fmt.Sprintf("c%d", i), 400*sim.Nanosecond)
		a, b := nodes[i-1], nodes[i]
		g.Runners[i-1].Attach(ch.SideA())
		g.Runners[i].Attach(ch.SideB())
		ch.SideA().SetSink(0, int32(100+2*i), a.sink(len(a.ports)))
		ch.SideB().SetSink(0, int32(101+2*i), b.sink(len(b.ports)))
		a.ports = append(a.ports, ch.SideA())
		b.ports = append(b.ports, ch.SideB())
	}
	for i, r := range g.Runners {
		r.AddComponent(nodes[i], int32(10+i))
		if cfg.domain {
			ctl := &SpecControl{MaxWindows: cfg.k}
			if cfg.k > 0 {
				s := &loopSnap{n: nodes[i], sched: r.Scheduler()}
				ctl.Snapshot, ctl.Restore = s.snapshot, s.rollback
			}
			r.SetSpec(ctl)
		}
	}
	if cfg.domain {
		NewSpecDomain(g.Runners)
	}
	if err := g.Run(end); err != nil {
		t.Fatalf("%s: %v", cfg.name, err)
	}
	traces := make([][]string, nNodes)
	var events uint64
	var spec SpecCounters
	for i, r := range g.Runners {
		traces[i] = nodes[i].trace
		events += r.Scheduler().Processed()
		c, active := r.SpecStats()
		if active != cfg.domain {
			t.Fatalf("%s: runner %s SpecStats active=%v", cfg.name, r.Name(), active)
		}
		spec.Snapshots += c.Snapshots
		spec.Rollbacks += c.Rollbacks
		spec.Leaps += c.Leaps
		spec.Replayed += c.Replayed
	}
	return traces, events, spec
}

// TestOptimisticLoopModesAgree drives Run's one loop through every way of
// arming it — conservative batched windows, a leap domain at K = 0, and
// real speculation over stub snapshot closures — on a two-runner ping-pong
// and a three-runner chain, and requires identical delivery traces and
// event counts from all of them. The speculating row must actually have
// rolled back and replayed, the K = 0 row must not have snapshotted, every
// domain row must have leapt, and the rows outside a domain must not have.
func TestOptimisticLoopModesAgree(t *testing.T) {
	const end = 100 * sim.Microsecond
	configs := []loopConfig{
		{name: "batched"},
		{name: "domainK0", domain: true},
		{name: "domainK8", domain: true, k: 8},
	}
	for _, nNodes := range []int{2, 3} {
		var refTraces [][]string
		var refEvents uint64
		for _, cfg := range configs {
			traces, events, spec := runLoopChain(t, nNodes, cfg, end)
			tag := fmt.Sprintf("%d runners, %s", nNodes, cfg.name)
			if refTraces == nil {
				refTraces, refEvents = traces, events
				if len(traces[0]) == 0 || len(traces[nNodes-1]) == 0 {
					t.Fatalf("%s: no deliveries recorded", tag)
				}
			}
			for i := range traces {
				if !slices.Equal(traces[i], refTraces[i]) {
					t.Fatalf("%s: node %d trace diverged from %s (%d vs %d deliveries)",
						tag, i, configs[0].name, len(traces[i]), len(refTraces[i]))
				}
			}
			if events != refEvents {
				t.Fatalf("%s: %d events, %s ran %d", tag, events, configs[0].name, refEvents)
			}
			switch {
			case cfg.k > 0:
				if spec.Snapshots == 0 || spec.Rollbacks == 0 || spec.Replayed == 0 {
					t.Errorf("%s: speculation never rolled back: %+v", tag, spec)
				}
			case spec.Snapshots != 0 || spec.Rollbacks != 0:
				t.Errorf("%s: K = 0 run snapshotted or rolled back: %+v", tag, spec)
			}
			if cfg.domain != (spec.Leaps > 0) {
				t.Errorf("%s: %d GVT leaps", tag, spec.Leaps)
			}
		}
	}
}

// pooledMsg is a pooled payload (a core.Releaser) with no codec; it counts
// its releases.
type pooledMsg struct{ released *int }

func (m pooledMsg) Release() { *m.released++ }

// pooledSender sends one pooledMsg at time zero and accepts anything sent
// back.
type pooledSender struct {
	env      core.Env
	port     core.Port
	released *int
}

func (p *pooledSender) Name() string                   { return "sender" }
func (p *pooledSender) Attach(env core.Env)            { p.env = env }
func (p *pooledSender) Deliver(sim.Time, core.Message) {}
func (p *pooledSender) Start(sim.Time) {
	p.env.At(0, func() { p.port.Send(pooledMsg{p.released}, 0) })
}

// TestOptimisticUnloggableInputFails: a speculating runner logs every input
// for replay, and a pooled payload arriving on a sub-channel with no pool
// owner could not be re-minted at replay. The run ends with
// core.ErrUnknownSink, matchable through Group.Run's error, which names the
// failing runner once, and the unlogged payload is released.
func TestOptimisticUnloggableInputFails(t *testing.T) {
	var released int
	ra, rb := NewRunner("a", sim.NewScheduler(1)), NewRunner("b", sim.NewScheduler(2))
	ch := NewChannel("ab", 500*sim.Nanosecond)
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	snd := &pooledSender{port: ch.SideA(), released: &released}
	rcv := &loopNode{name: "rcv", interval: 100 * sim.Nanosecond, ports: []core.Port{ch.SideB()}}
	ch.SideA().SetSink(0, 100, snd)
	ch.SideB().SetSink(0, 101, rcv.sink(0))
	ra.AddComponent(snd, 10)
	rb.AddComponent(rcv, 11)
	ra.SetSpec(&SpecControl{})
	ls := &loopSnap{n: rcv, sched: rb.Scheduler()}
	rb.SetSpec(&SpecControl{MaxWindows: 8, Snapshot: ls.snapshot, Restore: ls.rollback})
	g := &Group{}
	g.Add(ra, rb)
	NewSpecDomain(g.Runners)

	err := g.Run(10 * sim.Microsecond)
	if !errors.Is(err, core.ErrUnknownSink) {
		t.Fatalf("err = %v, want ErrUnknownSink", err)
	}
	if n := strings.Count(err.Error(), "runner b"); n != 1 {
		t.Errorf("error %q names the runner %d times, want once", err, n)
	}
	if released != 1 {
		t.Errorf("unlogged payload released %d times, want 1", released)
	}
}
