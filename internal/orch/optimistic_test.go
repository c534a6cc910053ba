package orch_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
)

// specChatter is the checkpointable analogue of chatter: same traffic shape
// (periodic sends on every port, probabilistic forwarding on delivery) but
// built on named events instead of closure timers, with every piece of
// mutable state — including the delivery trace, folded to an FNV-1a digest —
// serialized through core.Stateful. That makes it snapshot/rollback-able, so
// the optimistic executor can actually speculate over it, and a rollback
// that failed to restore anything (the PRNG, the sequence counter, the
// digest itself) shows up as a digest mismatch against sequential.
type specChatter struct {
	name   string
	env    core.Env
	ports  []core.Port
	period sim.Time
	rng    *sim.Rand
	tickH  int32

	hash uint64 // FNV-1a over delivery records
	n    uint64 // deliveries recorded
	seq  uint64 // messages sent
}

func newSpecChatter(name string, period sim.Time, seed uint64) *specChatter {
	return &specChatter{name: name, period: period, rng: sim.NewRand(seed), hash: 14695981039346656037}
}

func (c *specChatter) Name() string { return c.name }

func (c *specChatter) Attach(env core.Env) {
	c.env = env
	c.tickH = env.RegisterNamed("spec/"+c.name+"/tick", c.tick)
}

func (c *specChatter) Start(end sim.Time) {
	c.env.PostNamed(c.env.Now()+c.period/2, c.tickH, sim.NamedArgs{})
}

func (c *specChatter) tick(sim.NamedArgs) {
	for i, p := range c.ports {
		c.seq++
		p.Send(chatMsg{from: c.name, port: i, seq: int(c.seq)}, 0)
	}
	c.env.PostNamed(c.env.Now()+c.period, c.tickH, sim.NamedArgs{})
}

func (c *specChatter) record(s string) {
	for i := 0; i < len(s); i++ {
		c.hash ^= uint64(s[i])
		c.hash *= 1099511628211
	}
	c.n++
}

func (c *specChatter) sink(port int) core.Sink {
	return core.SinkFunc(func(at sim.Time, m core.Message) {
		msg := m.(chatMsg)
		c.record(fmt.Sprintf("%s<-%s.%d#%d@%v", c.name, msg.from, msg.port, msg.seq, at))
		if c.rng.Float64() < 0.3 && len(c.ports) > 0 {
			c.seq++
			c.ports[c.rng.Intn(len(c.ports))].Send(chatMsg{from: c.name, port: -1, seq: int(c.seq)}, 0)
		}
	})
}

func (c *specChatter) SnapshotState(e *snap.Encoder) error {
	e.U64(c.hash)
	e.U64(c.n)
	e.U64(c.seq)
	e.U64(c.rng.State())
	return nil
}

func (c *specChatter) RestoreState(d *snap.Decoder) error {
	c.hash = d.U64()
	c.n = d.U64()
	c.seq = d.U64()
	c.rng.SetState(d.U64())
	return d.Err()
}

func (c *specChatter) WalkSinks(func(core.Sink)) {}
func (c *specChatter) StartRestored(sim.Time)    {}

// buildSpecRandom mirrors buildRandom with specChatter components.
func buildSpecRandom(seed uint64, nComps int) (*orch.Simulation, []*specChatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*specChatter, nComps)
	for i := range comps {
		comps[i] = newSpecChatter(fmt.Sprintf("s%d", i),
			sim.Time(50+rng.Intn(100))*sim.Microsecond, seed^uint64(i)*0x9e37)
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

// buildSpecTrunked mirrors buildTrunked with specChatter components.
func buildSpecTrunked(seed uint64, nComps int) (*orch.Simulation, []*specChatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*specChatter, nComps)
	for i := range comps {
		comps[i] = newSpecChatter(fmt.Sprintf("st%d", i),
			sim.Time(60+rng.Intn(80))*sim.Microsecond, seed^uint64(i)*0x5bd1)
		s.Add(comps[i])
	}
	for i := 1; i < nComps; i++ {
		ca, cb := comps[i-1], comps[i]
		nPairs := 2 + rng.Intn(2)
		lat := sim.Time(2+rng.Intn(10)) * sim.Microsecond
		for j := 0; j < nPairs; j++ {
			pa, pb := len(ca.ports), len(cb.ports)
			ca.ports = append(ca.ports, nil)
			cb.ports = append(cb.ports, nil)
			s.Connect(fmt.Sprintf("trunk%d.%d", i, j), lat,
				orch.Side{Comp: ca, Bind: func(p core.Port) { ca.ports[pa] = p }, Sink: ca.sink(pa)},
				orch.Side{Comp: cb, Bind: func(p core.Port) { cb.ports[pb] = p }, Sink: cb.sink(pb)})
		}
	}
	return s, comps
}

// buildSpecBundled mirrors buildBundled with specChatter components.
func buildSpecBundled(seed uint64, nComps int) (*orch.Simulation, []*specChatter) {
	rng := sim.NewRand(seed)
	s := orch.New()
	comps := make([]*specChatter, nComps)
	cs := make([]core.Component, nComps)
	for i := range comps {
		comps[i] = newSpecChatter(fmt.Sprintf("sb%d", i),
			sim.Time(50+rng.Intn(100))*sim.Microsecond, seed^uint64(i)*0x7f4a)
		s.Add(comps[i])
		cs[i] = comps[i]
	}
	wireBundled(s, rng, cs, func(i int) (func(core.Port), core.Sink) {
		c, p := comps[i], len(comps[i].ports)
		c.ports = append(c.ports, nil)
		return func(port core.Port) { c.ports[p] = port }, c.sink(p)
	})
	return s, comps
}

type specBuildFn func(seed uint64, nComps int) (*orch.Simulation, []*specChatter)

// specDigest folds every component's trace digest and count into one pair.
func specDigest(comps []*specChatter) (uint64, uint64) {
	h, n := uint64(14695981039346656037), uint64(0)
	for _, c := range comps {
		for _, v := range []uint64{c.hash, c.n, c.seq} {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
		n += c.n
	}
	return h, n
}

// runSpecSeq runs the build sequentially and returns digest, deliveries,
// and events processed.
func runSpecSeq(build specBuildFn, seed uint64, nComps int, end sim.Time) (uint64, uint64, uint64) {
	s, comps := build(seed, nComps)
	sched := s.RunSequential(end)
	h, n := specDigest(comps)
	return h, n, sched.Processed()
}

// runSpecOpt runs the build optimistically under p with speculation
// ceiling k.
func runSpecOpt(t *testing.T, build specBuildFn, seed uint64, nComps int, end sim.Time,
	p decomp.Placement, k int) (uint64, uint64, uint64, *orch.SpecReport) {
	t.Helper()
	s, comps := build(seed, nComps)
	_, spec, events := speculate(t, s, p, end, orch.RunOptions{}, k)
	h, n := specDigest(comps)
	return h, n, events, spec
}

// speculate is execute through the Speculate hook: it runs the plan of p
// optimistically under o at speculation ceiling k.
func speculate(tb testing.TB, s *orch.Simulation, p decomp.Placement, end sim.Time, o orch.RunOptions,
	k int) (*orch.RunResult, *orch.SpecReport, uint64) {
	tb.Helper()
	pl, err := s.Plan(p)
	if err != nil {
		tb.Fatalf("Plan(%v): %v", p.Groups, err)
	}
	res, spec, err := pl.Speculate(end, o, k)
	if err != nil {
		tb.Fatalf("Speculate(%v, %+v, %d): %v", p.Groups, o, k, err)
	}
	return res, spec, processed(res)
}

// randPlacements is the placement set every optimistic property sweeps:
// fully split, fully co-located, blocked in two halves, and two random
// placements derived from the seed.
func randPlacements(seed uint64, nComps int) []decomp.Placement {
	ps := []decomp.Placement{
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
		ps = append(ps, decomp.Placement{Name: fmt.Sprintf("rand%d", k), Groups: groups})
	}
	return ps
}

// TestOptimisticDigestMatchesSequential is the tentpole's acceptance
// property: speculation, rollback, input-log replay, and GVT leaping must
// never schedule or reorder a simulation event. Optimistic runs produce
// bit-identical per-component digests and total event counts to
// RunSequential — for random placements, direct and trunked graphs, several
// speculation depths, at every GOMAXPROCS level.
func TestOptimisticDigestMatchesSequential(t *testing.T) {
	const end = 2 * sim.Millisecond
	builders := []struct {
		name  string
		build specBuildFn
	}{
		{"direct", buildSpecRandom},
		{"trunked", buildSpecTrunked},
		{"bundled", buildSpecBundled},
	}
	for _, procs := range gomaxprocsSweep() {
		procs := procs
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, bld := range builders {
				for seed := uint64(1); seed <= 2; seed++ {
					nComps := 4 + int(seed)
					refH, refN, refEvents := runSpecSeq(bld.build, seed, nComps, end)
					if refN == 0 {
						t.Fatal("sequential run recorded no deliveries")
					}
					for _, p := range randPlacements(seed, nComps) {
						for _, k := range []int{8, 2} {
							h, n, events, _ := runSpecOpt(t, bld.build, seed, nComps, end, p, k)
							if h != refH || n != refN {
								t.Fatalf("%s/seed%d %s K=%d: digest %#x/%d != sequential %#x/%d",
									bld.name, seed, p.Name, k, h, n, refH, refN)
							}
							if events != refEvents {
								t.Fatalf("%s/seed%d %s K=%d: %d events, sequential %d",
									bld.name, seed, p.Name, k, events, refEvents)
							}
						}
					}
				}
			}
		})
	}
}

// TestOptimisticSpeculates pins down that the machinery actually engages on
// an eligible graph: snapshots are taken, and across a spread of seeds and
// placements at a deep speculation ceiling, at least one straggler rollback
// (with replayed deliveries) occurs. The digest property above would pass
// vacuously if speculation never ran; this test closes that hole.
func TestOptimisticSpeculates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const end = 2 * sim.Millisecond
	var total orch.SpecReport
	var snaps, rolls uint64
	for seed := uint64(1); seed <= 4; seed++ {
		nComps := 4 + int(seed)
		refH, _, _ := runSpecSeq(buildSpecRandom, seed, nComps, end)
		for _, p := range randPlacements(seed, nComps) {
			h, _, _, rep := runSpecOpt(t, buildSpecRandom, seed, nComps, end, p, 32)
			if h != refH {
				t.Fatalf("seed%d %s: digest diverged under deep speculation", seed, p.Name)
			}
			for _, g := range rep.Groups {
				if g.Conservative != "" && len(p.Groups) > 1 {
					t.Fatalf("seed%d %s: eligible group %s ran conservative: %s",
						seed, p.Name, g.Group, g.Conservative)
				}
			}
			tt := rep.Totals()
			snaps += tt.Snapshots
			rolls += tt.Rollbacks
			total.Groups = append(total.Groups, rep.Groups...)
		}
	}
	if snaps == 0 {
		t.Error("no snapshots taken across any seed/placement: speculation never armed")
	}
	if rolls == 0 {
		t.Error("no rollbacks across any seed/placement: straggler path never exercised")
	}
}

// TestOptimisticNonStatefulConservative: a graph of closure-timer chatter
// components (not core.Stateful) must run — bit-identically — with every
// group demoted to conservative execution under a typed reason, never fail.
func TestOptimisticNonStatefulConservative(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const (
		seed   = uint64(3)
		nComps = 6
		end    = 2 * sim.Millisecond
	)
	refTraces, refEvents := runPlaced(t, buildRandom, seed, nComps, end, nil)

	s, comps := buildRandom(seed, nComps)
	pl, err := s.Plan(decomp.PerComponent(nComps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.RunOptimistic(end)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Groups {
		if !strings.Contains(g.Conservative, "not checkpointable") {
			t.Errorf("group %s: reason %q, want a not-checkpointable demotion", g.Group, g.Conservative)
		}
		if g.Counters.Snapshots != 0 || g.Counters.Rollbacks != 0 {
			t.Errorf("group %s: conservative group took snapshots/rollbacks: %+v", g.Group, g.Counters)
		}
	}
	var events uint64
	for _, r := range s.Group.Runners {
		events += r.Scheduler().Processed()
	}
	if events != refEvents {
		t.Fatalf("%d events, sequential %d", events, refEvents)
	}
	for i, c := range comps {
		if !equalSlices(c.trace, refTraces[i]) {
			t.Fatalf("component %s trace diverged", c.name)
		}
	}
}

// auxProbe is a minimal aux-state holder for the eligibility test.
type auxProbe struct{}

func (auxProbe) SnapshotState(*snap.Encoder) error { return nil }
func (auxProbe) RestoreState(*snap.Decoder) error  { return nil }

// TestOptimisticAuxStateConservative: attached aux state is mutated from
// component handlers and cannot roll back with any single group, so its
// presence forces every group conservative.
func TestOptimisticAuxStateConservative(t *testing.T) {
	const (
		seed   = uint64(2)
		nComps = 4
		end    = sim.Millisecond
	)
	refH, refN, _ := runSpecSeq(buildSpecRandom, seed, nComps, end)

	s, comps := buildSpecRandom(seed, nComps)
	s.AddAuxState("probe", auxProbe{})
	pl, err := s.Plan(decomp.PerComponent(nComps))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.RunOptimistic(end)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Groups {
		if !strings.Contains(g.Conservative, "aux state") {
			t.Errorf("group %s: reason %q, want an aux-state demotion", g.Group, g.Conservative)
		}
	}
	if h, n := specDigest(comps); h != refH || n != refN {
		t.Fatalf("digest %#x/%d != sequential %#x/%d", h, n, refH, refN)
	}
}

// twoNetsNamed is twoNets with the sender application rebuilt on named
// events, so the packet graph is fully checkpointable and the optimistic
// executor genuinely speculates over pooled frames — exercising the
// deep-copy input log and snapshot payload re-minting.
func twoNetsNamed() (*orch.Simulation, *netsim.Host, *netsim.Host) {
	n1 := netsim.New("net1", 1)
	n2 := netsim.New("net2", 1)
	sw1, sw2 := n1.AddSwitch("sw1"), n2.AddSwitch("sw2")
	h1 := n1.AddHost("h1", proto.HostIP(1))
	h2 := n2.AddHost("h2", proto.HostIP(2))
	n1.ConnectHostSwitch(h1, sw1, 10*sim.Gbps, 1*sim.Microsecond)
	n2.ConnectHostSwitch(h2, sw2, 10*sim.Gbps, 1*sim.Microsecond)
	x1 := n1.AddExternal(sw1, "x", 10*sim.Gbps, proto.HostIP(2))
	x2 := n2.AddExternal(sw2, "x", 10*sim.Gbps, proto.HostIP(1))
	n1.ComputeRoutes()
	n2.ComputeRoutes()

	var tickIdx int
	tickIdx = h1.RegisterNamed("app", func(sim.NamedArgs) {
		h1.SendUDP(proto.HostIP(2), 1, 9, nil, 400)
		h1.PostNamed(20*sim.Microsecond, tickIdx, sim.NamedArgs{})
	})

	s := orch.New()
	s.Add(n1)
	s.Add(n2)
	s.Connect("x", 1*sim.Microsecond,
		orch.Side{Comp: n1, Bind: x1.Bind, Sink: x1},
		orch.Side{Comp: n2, Bind: x2.Bind, Sink: x2})

	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		h.PostNamed(0, tickIdx, sim.NamedArgs{})
	}))
	return s, h1, h2
}

// TestOptimisticFramesDrained runs the pooled-frame packet path under the
// optimistic executor: delivered counts match sequential, no frame leaks
// after the run — including frames that were logged, rolled back, and
// replayed — and the netsim groups actually speculate.
func TestOptimisticFramesDrained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const end = 2 * sim.Millisecond

	ref, _, refH2 := twoNetsNamed()
	ref.RunSequential(end)
	if refH2.RxPackets == 0 {
		t.Fatal("sequential reference delivered no packets")
	}
	if live := ref.LiveFrames(); live != 0 {
		t.Fatalf("%d pooled frames leaked after sequential run", live)
	}

	s, h1, h2 := twoNetsNamed()
	pl, err := s.Plan(decomp.PerComponent(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.RunOptimistic(end)
	if err != nil {
		t.Fatal(err)
	}
	if h2.RxPackets != refH2.RxPackets {
		t.Fatalf("optimistic delivered %d packets, sequential %d", h2.RxPackets, refH2.RxPackets)
	}
	if h1.TxPackets != h2.RxPackets {
		t.Fatalf("tx %d != rx %d", h1.TxPackets, h2.RxPackets)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d pooled frames leaked after optimistic run", live)
	}
	for _, g := range rep.Groups {
		if g.Conservative != "" {
			t.Errorf("group %s demoted: %s", g.Group, g.Conservative)
		}
	}
	if rep.Totals().Snapshots == 0 {
		t.Error("netsim groups never snapshotted: speculation did not engage")
	}
}

// TestOptimisticClosureDemotes drives the runtime demotion path: twoNets'
// sender keeps an h.After closure pending from time zero (the placement
// study's bulk apps do the same), so its group passes the build-time check
// but fails its first snapshot and runs conservatively. The run still
// delivers and processes exactly what the sequential run does, and drains
// every frame.
func TestOptimisticClosureDemotes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const end = 2 * sim.Millisecond

	ref, _, refH2 := twoNets()
	refEvents := ref.RunSequential(end).Processed()

	s, h1, h2 := twoNets()
	pl, err := s.Plan(decomp.PerComponent(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.RunOptimistic(end)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 holds net1, the sender's network.
	if rep.Groups[0].Conservative == "" {
		t.Errorf("group %s speculated with a closure pending", rep.Groups[0].Group)
	}
	for _, g := range rep.Groups {
		if g.Conservative == "" {
			continue
		}
		if !strings.HasPrefix(g.Conservative, "snapshot failed: ") ||
			!strings.Contains(g.Conservative, sim.ErrClosureEvent.Error()) {
			t.Errorf("group %s: reason %q, want a snapshot failure on %q",
				g.Group, g.Conservative, sim.ErrClosureEvent)
		}
		if g.Counters.Snapshots != 0 || g.Counters.Rollbacks != 0 {
			t.Errorf("group %s: demoted group took snapshots/rollbacks: %+v", g.Group, g.Counters)
		}
	}
	if h2.RxPackets != refH2.RxPackets || h1.TxPackets != h2.RxPackets {
		t.Fatalf("tx %d, rx %d; sequential rx %d", h1.TxPackets, h2.RxPackets, refH2.RxPackets)
	}
	var events uint64
	for _, r := range s.Group.Runners {
		events += r.Scheduler().Processed()
	}
	if events != refEvents {
		t.Fatalf("%d events, sequential %d", events, refEvents)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d pooled frames leaked after the demoted run", live)
	}
}

// TestOptimisticProfiledStillSpeculates: the profiler samples from the
// runner's OnAdvance hook and posts no scheduler events, so attaching it to
// an optimistic run costs the run nothing it can observe — no group demotes
// (a closure tick in the queue used to fail every snapshot), snapshots are
// taken, and digest and event count equal the unprofiled sequential run's.
// Samples carry the committed clock, so each runner's are nondecreasing in
// virtual time however far it speculated; and the same profiled run
// captures a checkpoint.
func TestOptimisticProfiledStillSpeculates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const dur = 50 * sim.Microsecond

	ref, refCores, refMem := buildMemSplit()
	refEvents := ref.RunSequential(dur).Processed()
	refDigest := memSplitDigest(t, refCores, refMem)

	s, cores, mem := buildMemSplit()
	col := profiler.NewCollector()
	s.PreRun = func(g *link.Group) { col.Attach(g, dur/32) }
	res, spec, events := speculate(t, s, decomp.PerComponent(s.NumComponents()), dur,
		orch.RunOptions{Capture: true}, orch.DefaultSpecWindows)
	for _, g := range spec.Groups {
		if g.Conservative != "" {
			t.Errorf("profiled group %s demoted: %s", g.Group, g.Conservative)
		}
	}
	if spec.Totals().Snapshots == 0 {
		t.Error("profiled run never snapshotted: speculation did not engage")
	}
	if d := memSplitDigest(t, cores, mem); d != refDigest || events != refEvents {
		t.Fatalf("profiled run: digest %#x, %d events; sequential %#x, %d", d, events, refDigest, refEvents)
	}
	if res.Checkpoint == nil {
		t.Fatal("profiled run captured no checkpoint")
	}
	last := make(map[string]sim.Time)
	for _, sm := range col.Samples() {
		if !sm.SpecActive {
			t.Fatalf("sample of %s at %v not marked speculative", sm.Sim, sm.Virt)
		}
		if sm.Virt < last[sm.Sim] {
			t.Fatalf("%s sampled at %v after %v", sm.Sim, sm.Virt, last[sm.Sim])
		}
		last[sm.Sim] = sm.Virt
	}
	if len(last) != s.NumComponents() {
		t.Fatalf("samples cover %d runners, want %d", len(last), s.NumComponents())
	}
}

// remoteSim builds a minimal simulation holding one remote connection.
func remoteSim() *orch.Simulation {
	s := orch.New()
	c := newSpecChatter("local", 50*sim.Microsecond, 1)
	c.ports = append(c.ports, nil)
	s.Add(c)
	s.Reserve(1)
	s.ConnectRemote("x", 5*sim.Microsecond,
		orch.Side{Comp: c, Bind: func(p core.Port) { c.ports[0] = p }, Sink: c.sink(0)}, true)
	return s
}

// TestParallelRemoteRejected pins what a conservative run with a remote
// channel still refuses: capturing a checkpoint and resuming from one. Both
// fail with core.ErrNotCheckpointable before any runner starts — this
// remote peer never answers, so a runner that did start would hang.
func TestParallelRemoteRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    orch.RunOptions
	}{
		{"Capture", orch.RunOptions{Capture: true}},
		{"Resume", orch.RunOptions{Resume: &orch.Checkpoint{At: sim.Microsecond}}},
	} {
		s := remoteSim()
		pl, err := s.Plan(decomp.SingleGroup(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Execute(sim.Millisecond, tc.o)
		if !errors.Is(err, core.ErrNotCheckpointable) {
			t.Fatalf("%s with remotes: err = %v, want ErrNotCheckpointable", tc.name, err)
		}
		if res.Scheds != nil || s.Group != nil {
			t.Fatalf("%s with remotes built runners before failing", tc.name)
		}
	}
}

// TestOptimisticRemoteRejected: the optimistic executor rejects plans with
// remote channels via the typed error — its GVT leaps read every runner's
// floor and edge counters, which a peer process does not share.
func TestOptimisticRemoteRejected(t *testing.T) {
	pl, err := remoteSim().Plan(decomp.SingleGroup(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.RunOptimistic(sim.Millisecond)
	if !errors.Is(err, orch.ErrRemoteUnsupported) {
		t.Fatalf("RunOptimistic with remotes: err = %v, want ErrRemoteUnsupported", err)
	}
}

// FuzzOptimisticRollback drives random graphs through random placements and
// speculation depths — stragglers land at arbitrary speculative depths —
// and checks the full bit-identity contract against sequential execution
// plus frame-pool hygiene (specChatter graphs hold no pooled frames, so
// LiveFrames must be 0 throughout).
func FuzzOptimisticRollback(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(5), uint64(7))
	f.Add(uint64(2), uint8(2), uint8(4), uint64(11))
	f.Add(uint64(3), uint8(32), uint8(6), uint64(13))
	f.Add(uint64(9), uint8(1), uint8(3), uint64(17))
	f.Add(uint64(14), uint8(16), uint8(7), uint64(23))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, nRaw uint8, placeSeed uint64) {
		const end = sim.Millisecond
		nComps := 3 + int(nRaw%5)
		k := int(kRaw % 33)

		refH, refN, refEvents := runSpecSeq(buildSpecRandom, seed, nComps, end)

		prng := sim.NewRand(placeSeed | 1)
		groups := make([]int, nComps)
		for i := range groups {
			groups[i] = prng.Intn(1 + prng.Intn(nComps))
		}
		p := decomp.Placement{Name: "fuzz", Groups: groups}

		s, comps := buildSpecRandom(seed, nComps)
		_, _, events := speculate(t, s, p, end, orch.RunOptions{}, k)
		if h, n := specDigest(comps); h != refH || n != refN {
			t.Fatalf("digest %#x/%d != sequential %#x/%d (K=%d, groups=%v)",
				h, n, refH, refN, k, groups)
		}
		if events != refEvents {
			t.Fatalf("%d events, sequential %d (K=%d, groups=%v)", events, refEvents, k, groups)
		}
		if live := s.LiveFrames(); live != 0 {
			t.Fatalf("%d pooled frames leaked", live)
		}
	})
}
