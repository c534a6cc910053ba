package main

import (
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/netsim/flowsim"
	"repro/internal/netsim/topogen"
	wl "repro/internal/netsim/workload"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/tcpstack"
)

// workload is one benchmark scenario. Each re-creates a paper scenario from
// the substrates' exported APIs, so that every layer boundary is a call this
// package makes and can time.
type workload struct {
	name string
	why  string
	// placed workloads run on two runner groups and need a core for each.
	placed bool
	// floorDepth is the pending-event depth sim.sched_floor_ns is priced at:
	// the depth of the workload's busiest scheduler at the end of a seed-42
	// run, probed once by hand with a closure event (the executors sweep the
	// queue before they return, so a run cannot be asked for it afterwards).
	// fullsys_dctcp's 100,000 is not a typo: its queue grows by about 900
	// entries per simulated millisecond for the whole run.
	floorDepth int
	fn         func(*ctx)
}

var workloads = []*workload{
	{name: "fullsys_dctcp", floorDepth: 100_000, fn: fullsysDCTCP,
		why: "fig6 e2e cell: four detailed hosts (hostsim+nicsim+pci+tcpstack) on a dumbbell, RunSequential(125 ms); the full-system path"},
	{name: "fabric_shuffle", floorDepth: 600, fn: fabricShuffle,
		why: "102,400-slot lazy Clos, 256 hosts in a UDP shuffle, RunSequential(15 ms); pure packet tier with a real set-up"},
	{name: "netsplit_par", placed: true, floorDepth: 19_000, fn: netsplitPar,
		why: "fig8 FatTree8 in 4 trunked partitions on 2 groups, RunParallel(3 ms); decomposition where compute dominates, link data path"},
	{name: "memsplit_par", placed: true, floorDepth: 8, fn: func(c *ctx) { memsplit(c, false) },
		why: "fig7 8-core memsim split on 2 groups, RunParallel(1.5 ms); 0.6 syncs per event, so wall is link sync, wait and park-wake"},
	{name: "memsplit_opt", placed: true, floorDepth: 8, fn: func(c *ctx) { memsplit(c, true) },
		why: "same build and placement under RunOptimistic(1.5 ms); snapshot, rollback and GVT leap in place of conservative waiting"},
	{name: "mixed_1m", floorDepth: 128, fn: mixed1M,
		why: "1,001,472-slot Clos, 65-host packet incast over a flow-level elephant tier, RunSequential(1.25 ms); set-up and memory dominate"},
	{name: "warm_sweep", floorDepth: 650, fn: warmSweep,
		why: "checkpoint a 5 ms warm-up once, resume 16 sweep points of 0.25 ms from it; snap codec, capture, restore and rebuild dominate"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// blocked places n components on two groups, the first half and the second.
func blocked(n int) decomp.Placement {
	g := make([]int, n)
	for i := range g {
		g[i] = i * procs / n
	}
	return decomp.Placement{Name: "blocked2", Groups: g}
}

// ---- layer counters shared by several workloads ----

// switchLayers reads the packet tier's public counters.
func (c *ctx) switchLayers(switches []*netsim.Switch, hostSlots int) {
	var rx, hits, drops uint64
	maxEntries, routeBytes := 0, 0
	for _, sw := range switches {
		rx += sw.RxPackets
		hits += sw.FlowCacheHits
		drops += sw.NoRoute
		for _, ifc := range sw.Ifaces() {
			drops += ifc.Drops
		}
		perIP, prefix := sw.RouteEntries()
		if perIP+prefix > maxEntries {
			maxEntries = perIP + prefix
		}
		routeBytes += sw.RouteStateBytes()
	}
	c.layer("netsim.switch_rx_pkts", float64(rx))
	c.layer("netsim.pkts_per_s", float64(rx)/c.rep.RunWallS)
	if rx > 0 {
		c.layer("netsim.flowcache_hit_share", float64(hits)/float64(rx))
	}
	c.layer("netsim.drops", float64(drops))
	c.layer("netsim.route_entries_max", float64(maxEntries))
	c.layer("netsim.route_bytes_per_host", float64(routeBytes)/float64(hostSlots))
}

// engineResults folds a workload engine's simulated results into the digest
// and the layer metrics, and checks that traffic actually flowed.
func (c *ctx) engineResults(eng *wl.Engine) {
	r := eng.Collect()
	p50, p99 := r.FCT.Percentile(50), r.FCT.Percentile(99)
	c.fold("flows", flowResults(eng)...)
	c.check("flows completed > 0", r.FlowsCompleted > 0)
	c.layer("workload.flows_started", float64(r.FlowsStarted))
	c.layer("workload.flows_completed", float64(r.FlowsCompleted))
	c.layer("workload.bytes_sent", float64(r.BytesSent))
	c.layer("workload.fct_p50_us", p50.Microseconds())
	c.layer("workload.fct_p99_us", p99.Microseconds())
}

// poolLayers sums the frame pools and checks that every frame came back.
func (c *ctx) poolLayers(s *orch.Simulation) {
	var st proto.PoolStats
	for _, comp := range s.Components() {
		if fp, ok := comp.(core.FramePooler); ok {
			st.Add(fp.FrameStats())
		}
	}
	c.check("LiveFrames() == 0", s.LiveFrames() == 0)
	c.layer("proto.frame_allocs", float64(st.Allocs))
	c.layer("proto.frame_reuses", float64(st.Reuses))
	if n := st.Allocs + st.Reuses; n > 0 {
		c.layer("proto.frame_reuse_share", float64(st.Reuses)/float64(n))
	}
	c.layer("proto.frames_live_end", float64(st.Live))
}

// linkLayers sums the channel counters of a placed run's runners and returns
// the run's event count.
func (c *ctx) linkLayers(g *link.Group) uint64 {
	var tot link.Counters
	var peak, events uint64
	for _, r := range g.Runners {
		tot.Add(r.Counters())
		for _, e := range r.Endpoints() {
			if e.Stats.PeakDepth > peak {
				peak = e.Stats.PeakDepth
			}
		}
		events += r.Scheduler().Processed()
	}
	c.layer("link.tx_sync", float64(tot.TxSync))
	c.layer("link.tx_data", float64(tot.TxData))
	c.layer("link.rx_sync", float64(tot.RxSync))
	c.layer("link.rx_data", float64(tot.RxData))
	c.layer("link.wait_s", float64(tot.WaitNanos)/1e9)
	c.layer("link.proc_s", float64(tot.ProcNanos)/1e9)
	c.layer("link.wait_share", float64(tot.WaitNanos)/1e9/(float64(len(g.Runners))*c.rep.RunWallS))
	c.layer("link.peak_depth", float64(peak))
	if events > 0 {
		c.layer("link.sync_per_event", float64(tot.TxSync)/float64(events))
	}
	return events
}

// specLayers reports what speculation did; a group that fell back to
// conservative execution is a failed check, with its reason on stderr.
func (c *ctx) specLayers(rep *orch.SpecReport) {
	demoted := 0
	for _, g := range rep.Groups {
		if g.Conservative != "" {
			demoted++
			fmt.Fprintf(os.Stderr, "bench/e2e: group %s demoted: %s\n", g.Group, g.Conservative)
		}
	}
	c.check("no speculative demotion", demoted == 0)
	t := rep.Totals()
	c.layer("orch.spec_demoted_groups", float64(demoted))
	c.layer("link.spec_snapshots", float64(t.Snapshots))
	c.layer("link.spec_rollbacks", float64(t.Rollbacks))
	c.layer("link.spec_leaps", float64(t.Leaps))
	c.layer("link.spec_replayed", float64(t.Replayed))
	c.layer("link.spec_wasted_s", float64(t.WastedNanos)/1e9)
	if t.Snapshots > 0 {
		c.layer("link.spec_commit_ratio", 1-float64(t.Rollbacks)/float64(t.Snapshots))
	}
}

// stateEncode times SnapshotState of every component into one encoder — the
// snap codec's share of a checkpoint or a speculation snapshot.
func (c *ctx) stateEncode(s *orch.Simulation) {
	var enc snap.Encoder
	var err error
	wall := c.span("snap.SnapshotState", func() {
		for _, comp := range s.Components() {
			st, ok := comp.(core.Stateful)
			if !ok {
				continue
			}
			if e := st.SnapshotState(&enc); e != nil {
				err = e
			}
		}
	})
	c.check("state encodes", err == nil)
	c.layer("snap.state_encode_s", wall)
}

// modelGraph times the decomposition model's input extraction.
func (c *ctx) modelGraph(s *orch.Simulation, dur sim.Time) {
	c.layer("orch.modelgraph_s", c.span("orch.ModelGraph", func() { s.ModelGraph(dur) }))
}

// seqPlan times Plan for a sequential workload: RunSequential plans inside
// the run call, so the traced run prices the same one-group plan outside it.
func (c *ctx) seqPlan(s *orch.Simulation) {
	c.layer("orch.groups", 1)
	c.layer("orch.plan_s", c.span("orch.Plan", func() {
		_, err := s.Plan(decomp.SingleGroup(s.NumComponents()))
		c.check("plan", err == nil)
	}))
}

// placedExtras runs what a traced placed workload adds: the model's
// prediction beside the measurement, the measured sync cost, and the same
// build under RunSequential as the reference the digest must equal.
func (c *ctx) placedExtras(s *orch.Simulation, pl *orch.ExecutionPlan, dur sim.Time, rebuild func() (*orch.Simulation, func())) {
	c.span("link.MeasuredSyncCost", func() { c.layer("link.sync_cost_ns", link.MeasuredSyncCost()) })
	var comps []decomp.Comp
	var links []decomp.Link
	var err error
	c.layer("orch.modelgraph_s", c.span("orch.ModelGraph", func() { comps, links, err = pl.ModelGraph(dur) }))
	c.check("model graph", err == nil)
	if err == nil {
		pred := decomp.Makespan(comps, links, orch.HostModelParams(dur)).ParNs / 1e9 / dur.Seconds()
		c.layer("decomp.pred_wall_s_per_sim_s", pred)
		c.layer("decomp.pred_over_measured", pred/(c.rep.RunWallS/dur.Seconds()))
	}
	c.stateEncode(s)
	c.seqReference(dur, rebuild)
}

// seqReference runs a fresh copy of the build under RunSequential and checks
// that it folds to the digest the placed run produced.
func (c *ctx) seqReference(dur sim.Time, rebuild func() (*orch.Simulation, func())) {
	placed := c.digest
	c.digest = fnv.New64a()
	ref, foldResults := rebuild()
	wall := c.span("orch.RunSequential(reference)", func() { ref.RunSequential(dur) })
	foldResults()
	c.check("digest equals the sequential reference", c.digest.Sum64() == placed.Sum64())
	c.digest = placed
	c.layer("orch.seq_ref_run_s", wall)
	c.layer("orch.par_over_seq", c.rep.RunWallS/wall)
}

// attachProfiler hooks a collector into a traced placed run through PreRun
// and returns the function that analyses its samples afterwards.
func (c *ctx) attachProfiler(s *orch.Simulation, dur sim.Time) func() {
	col := profiler.NewCollector()
	s.PreRun = func(g *link.Group) { col.Attach(g, dur/64) }
	return func() {
		samples := col.Samples()
		c.layer("profiler.samples", float64(len(samples)))
		var a *profiler.Analysis
		var err error
		c.layer("profiler.analyze_s", c.span("profiler.Analyze", func() { a, err = profiler.Analyze(samples, 2, 2) }))
		c.check("profile analyses", err == nil)
		if err != nil {
			return
		}
		c.layer("profiler.wtpg_s", c.span("profiler.BuildWTPG", func() { profiler.BuildWTPG(a) }))
		// Sims sort by ascending wait: the first one is the bottleneck
		// everyone else waits for.
		c.layer("profiler.bottleneck_wait_share", a.Sims[0].WaitFrac)
	}
}

// ---- fullsys_dctcp ----

// dumbbell is fig6's topology: a 10G/1us bottleneck with ECN marking at K
// packets and one DCTCP bulk flow per direction.
type dumbbell struct {
	s          *orch.Simulation
	net        *netsim.Network
	snds, rcvs []*tcpstack.Conn
	hosts      []*instantiate.DetailedHost
}

func buildDumbbell(seed uint64, detailed bool) *dumbbell {
	const kPackets = 16
	n := netsim.New("net", seed)
	swL, swR := n.AddSwitch("swL"), n.AddSwitch("swR")
	li, ri := n.ConnectSwitches(swL, swR, 10*sim.Gbps, sim.Microsecond)
	for _, ifc := range []*netsim.Iface{swL.Ifaces()[li], swR.Ifaces()[ri]} {
		ifc.MarkThresholdBytes = kPackets * (tcpstack.MSS + 54)
		ifc.QueueCapBytes = 4 << 20
	}
	d := &dumbbell{s: orch.New(), net: n}
	d.s.Add(n)

	// gem5-tier hosts tuned for a 10G-capable stack, NICs with i40e-style
	// interrupt moderation — fig6's parameters.
	hp := hostsim.Gem5Params()
	hp.IRQOverhead = 300 * sim.Nanosecond
	hp.RxStackCost = 600 * sim.Nanosecond
	hp.TxStackCost = 800 * sim.Nanosecond
	np := nicsim.DefaultParams()
	np.IRQModeration = 20 * sim.Microsecond

	for i := 0; i < 2; i++ {
		lIP, rIP := proto.HostIP(uint32(1+i)), proto.HostIP(uint32(101+i))
		swSnd, swRcv := swL, swR
		if i == 1 { // pair 1 transfers right to left
			lIP, rIP = rIP, lIP
			swSnd, swRcv = swR, swL
		}
		port := uint16(41000 + i)
		if detailed {
			extL := n.AddExternal(swSnd, fmt.Sprintf("l%d", i), 10*sim.Gbps, lIP)
			extR := n.AddExternal(swRcv, fmt.Sprintf("r%d", i), 10*sim.Gbps, rIP)
			dl := instantiate.NewDetailedHost(fmt.Sprintf("l%d", i), lIP, hp, np, seed+uint64(i))
			dr := instantiate.NewDetailedHost(fmt.Sprintf("r%d", i), rIP, hp, np, seed+uint64(10+i))
			snd := dl.Host.DialTCP(rIP, port, proto.PortBulk, tcpstack.CCDCTCP, 0, nil)
			rcv := dr.Host.ListenTCP(lIP, proto.PortBulk, port, tcpstack.CCDCTCP)
			dl.Host.AddApp(hostsim.AppFunc(func(*hostsim.Host) { snd.StartFlow() }))
			dl.Wire(d.s, n, extL)
			dr.Wire(d.s, n, extR)
			d.hosts = append(d.hosts, dl, dr)
			d.snds, d.rcvs = append(d.snds, snd), append(d.rcvs, rcv)
		} else {
			hl, hr := n.AddHost(fmt.Sprintf("l%d", i), lIP), n.AddHost(fmt.Sprintf("r%d", i), rIP)
			n.ConnectHostSwitch(hl, swSnd, 10*sim.Gbps, instantiate.EthLatency)
			n.ConnectHostSwitch(hr, swRcv, 10*sim.Gbps, instantiate.EthLatency)
			snd, rcv := netsim.NewFlow(hl, hr, port, proto.PortBulk, netsim.CCDCTCP, 0, nil)
			hl.SetApp(netsim.AppFunc(func(*netsim.Host) { snd.StartFlow() }))
			d.snds, d.rcvs = append(d.snds, snd), append(d.rcvs, rcv)
		}
	}
	n.ComputeRoutes()
	return d
}

func fullsysDCTCP(c *ctx) {
	dur := c.dur(125 * sim.Millisecond) // the issue: 1.5 s
	var d *dumbbell
	c.setup(func() { d = buildDumbbell(c.seed, true) })
	var sched *sim.Scheduler
	c.run(dur, func() error { sched = d.s.RunSequential(dur); return nil })
	c.events(sched.Processed())

	var delivered int64
	var rtx, timeouts uint64
	for i := range d.snds {
		delivered += d.rcvs[i].Delivered()
		rtx += d.snds[i].Retransmits
		timeouts += d.snds[i].Timeouts
		c.fold("flow", i, d.rcvs[i].Delivered(), d.snds[i].Retransmits, d.snds[i].Timeouts)
	}
	c.check("bytes delivered > 0", delivered > 0)
	var hrx, htx, nrx, ntx uint64
	for _, h := range d.hosts {
		hrx, htx = hrx+h.Host.RxPackets, htx+h.Host.TxPackets
		nrx, ntx = nrx+h.NIC.RxFrames, ntx+h.NIC.TxFrames
	}
	c.layer("hostsim.rx_pkts", float64(hrx))
	c.layer("hostsim.tx_pkts", float64(htx))
	c.layer("nicsim.rx_frames", float64(nrx))
	c.layer("nicsim.tx_frames", float64(ntx))
	c.layer("tcpstack.delivered_bytes", float64(delivered))
	c.layer("tcpstack.retransmits", float64(rtx))
	c.layer("tcpstack.timeouts", float64(timeouts))
	c.switchLayers(d.net.Switches(), len(d.hosts))
	c.poolLayers(d.s)
	if !c.traced {
		return
	}
	c.seqPlan(d.s)
	c.modelGraph(d.s, dur)
	// The same dumbbell with protocol-level hosts: what is left of the run
	// when hostsim, nicsim and pci are taken out.
	p := buildDumbbell(c.seed, false)
	wall := c.span("orch.RunSequential(protocol-level hosts)", func() { p.s.RunSequential(dur) })
	c.layer("hostsim.proto_variant_run_s", wall)
	c.layer("hostsim.detail_share", 1-wall/c.rep.RunWallS)
}

// ---- Clos fabrics: fabric_shuffle, mixed_1m, warm_sweep ----

// closSpec is the `scale` experiment's fabric: 32 leaves and 8 spines per
// pod, 32 cores, lazy host slots.
func closSpec(pods, hostsPerLeaf int, defaultUp bool) topogen.ClosSpec {
	return topogen.ClosSpec{
		Pods: pods, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: hostsPerLeaf,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true, DefaultUp: defaultUp,
	}
}

// fabric is one built Clos with its workload installed, and what each
// set-up step cost.
type fabric struct {
	s     *orch.Simulation
	b     *netsim.Built
	slots int
	eng   *wl.Engine
	bg    *flowsim.Engine

	genS, buildS, materializeS, installS, bgS float64
}

// buildClos generates, builds and wires a lazy Clos, materialises n
// participants spread across pods and leaves, and installs the workload on
// them. bgLoad > 0 adds a flow-level elephant tier over every slot at that
// endpoint occupancy; aux registers the engine as checkpoint state.
func (c *ctx) buildClos(spec topogen.ClosSpec, n int, ws wl.Spec, bgLoad float64, aux bool) *fabric {
	f := &fabric{}
	var topo *netsim.Topology
	var m *topogen.ClosMeta
	f.genS = c.span("topogen.Clos", func() { topo, m = topogen.Clos(spec) })
	f.buildS = c.span("netsim.Build", func() { f.b = topo.Build("fab", c.seed, nil, nil) })
	f.slots = m.TotalHosts()

	hosts := make([]*netsim.Host, 0, n)
	f.materializeS = c.span("netsim.MaterializeSlot", func() {
		seen := map[int]bool{}
		for i := 0; len(hosts) < n; i++ {
			p := i % spec.Pods
			l := (i / spec.Pods) % spec.LeafPerPod
			h := (i / (spec.Pods * spec.LeafPerPod)) % spec.HostsPerLeaf
			if slot := m.HostSlots[p][l][h]; !seen[slot] {
				seen[slot] = true
				hosts = append(hosts, f.b.MaterializeSlot(slot))
			}
		}
	})
	f.installS = c.span("workload.Install", func() { f.eng = wl.Install(hosts, ws) })
	if bgLoad > 0 {
		f.bgS = c.span("flowsim.Install", func() {
			all := make([]int, 0, f.slots)
			for _, pod := range m.HostSlots {
				for _, leaf := range pod {
					all = append(all, leaf...)
				}
			}
			// load·slots/2 disjoint pairs of long-lived flows from t=0.
			perm := sim.NewRand(c.seed ^ 0xb105).Perm(f.slots)
			tr := &wl.Trace{Flows: make([]wl.TraceFlow, int(bgLoad*float64(f.slots)/2))}
			for i := range tr.Flows {
				tr.Flows[i] = wl.TraceFlow{Src: perm[2*i], Dst: perm[2*i+1], Bytes: 1 << 30}
			}
			f.bg = flowsim.Install(f.b, all, flowsim.Spec{Trace: tr, Seed: c.seed ^ 0xb105})
		})
	}
	c.span("instantiate.WirePartitions", func() {
		f.s = orch.New()
		instantiate.WirePartitions(f.s, topo, f.b, true)
		if aux {
			f.s.AddAuxState("wl", f.eng)
		}
	})
	return f
}

func (c *ctx) fabricLayers(f *fabric) {
	c.layer("topogen.gen_s", f.genS)
	c.layer("netsim.build_s", f.buildS)
	c.layer("netsim.materialize_s", f.materializeS)
	c.layer("workload.install_s", f.installS)
	c.switchLayers(f.b.Switches, f.slots)
	c.engineResults(f.eng)
	c.poolLayers(f.s)
}

func shuffleSpec(seed uint64) wl.Spec {
	return wl.Spec{
		Pattern: wl.Shuffle{},
		Sizes:   wl.Pareto{Min: 1000, Alpha: 1.3, Max: 500_000},
		Arrival: wl.Open{FlowsPerSec: 20_000},
		Seed:    seed,
	}
}

func fabricShuffle(c *ctx) {
	dur := c.dur(15 * sim.Millisecond) // the issue: 60 ms
	var f *fabric
	c.setup(func() { f = c.buildClos(closSpec(100, 32, false), 256, shuffleSpec(c.seed), 0, false) })
	var sched *sim.Scheduler
	c.run(dur, func() error { sched = f.s.RunSequential(dur); return nil })
	c.events(sched.Processed())
	c.fabricLayers(f)
	if c.traced {
		c.seqPlan(f.s)
		c.modelGraph(f.s, dur)
		c.stateEncode(f.s)
	}
}

func mixed1M(c *ctx) {
	dur := c.dur(1250 * sim.Microsecond) // the issue: 5 ms
	incast := wl.Spec{
		Pattern: wl.Incast{Victim: 0},
		Sizes:   wl.Fixed(20_000),
		Arrival: wl.Closed{Concurrency: 2},
		Seed:    c.seed,
	}
	var f *fabric
	c.setup(func() { f = c.buildClos(closSpec(489, 64, true), 65, incast, 0.3, false) })
	var sched *sim.Scheduler
	c.run(dur, func() error { sched = f.s.RunSequential(dur); return nil })
	c.events(sched.Processed())
	c.fabricLayers(f)

	br := f.bg.Collect()
	c.fold("bg", br.FlowsStarted, br.ActiveFlows, br.Unroutable)
	c.check("background flows active", br.ActiveFlows > 0)
	c.layer("flowsim.install_s", f.bgS)
	c.layer("flowsim.events", float64(br.Events))
	c.layer("flowsim.active_flows", float64(br.ActiveFlows))
	c.layer("flowsim.proj_pkt_events", float64(br.ProjPacketEvents))
	c.layer("flowsim.unroutable", float64(br.Unroutable))
	if c.traced {
		c.seqPlan(f.s)
		c.modelGraph(f.s, dur)
		c.stateEncode(f.s)
	}
}

// sweepPoints is how many configurations warm_sweep resumes from the one
// checkpoint; point 0 changes nothing and must reproduce the cold run.
const sweepPoints = 16

func warmSweep(c *ctx) {
	warm, tail := c.dur(5*sim.Millisecond), c.dur(250*sim.Microsecond) // the issue: 20 ms and 1 ms
	build := func() *fabric { return c.buildClos(closSpec(10, 32, false), 256, shuffleSpec(c.seed), 0, true) }
	stateDigest := func(f *fabric) uint64 {
		var enc snap.Encoder
		for _, p := range f.b.Parts {
			c.check("partition state encodes", p.SnapshotState(&enc) == nil)
		}
		c.check("engine state encodes", f.eng.SnapshotState(&enc) == nil)
		h := fnv.New64a()
		h.Write(enc.Bytes())
		return h.Sum64()
	}

	var first *fabric
	c.setup(func() { first = build() })
	var ckptS, loadS, resumeS float64
	var ckBytes int
	var events uint64
	var identity *fabric
	c.run(warm+sweepPoints*tail, func() error {
		var ck *orch.Checkpoint
		var err error
		ckptS = c.span("orch.CheckpointSequential", func() { ck, err = first.s.CheckpointSequential(warm) })
		if err != nil {
			return err
		}
		ckBytes = len(ck.Data)
		loadS = c.span("orch.LoadCheckpoint", func() { ck, err = orch.LoadCheckpoint(ck.Data) })
		if err != nil {
			return err
		}
		events = ck.BaseEvents
		for i := 0; i < sweepPoints; i++ {
			f := build()
			// The swept parameter: egress queue bound, unbounded at point 0.
			for _, sw := range f.b.Switches {
				for _, ifc := range sw.Ifaces() {
					ifc.QueueCapBytes = i * (16 << 10)
				}
			}
			var sched *sim.Scheduler
			resumeS += c.span("orch.ResumeSequential", func() { sched, err = f.s.ResumeSequential(ck, warm+tail) })
			if err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
			events += sched.Processed()
			r := f.eng.Collect()
			c.fold("point", i, r.FlowsStarted, r.FlowsCompleted, int64(r.FCT.Percentile(99)))
			c.check("LiveFrames() == 0", f.s.LiveFrames() == 0)
			if i == 0 {
				identity = f
			}
		}
		return nil
	})
	c.events(events)
	resumed := stateDigest(identity)
	c.fold("resumed-state", resumed)
	c.fabricLayers(identity)
	c.layer("orch.ckpt_s", ckptS)
	c.layer("orch.load_s", loadS)
	c.layer("orch.resume_s", resumeS)
	c.layer("snap.ckpt_bytes", float64(ckBytes))
	if !c.traced {
		return
	}
	c.seqPlan(identity.s)
	c.modelGraph(identity.s, warm+tail)
	c.stateEncode(identity.s)
	// A cold run to the checkpoint horizon prices what capture adds, and one
	// to the end of the tail is what the resumed identity point must equal.
	cold := build()
	coldS := c.span("orch.RunSequential(cold, to the horizon)", func() { cold.s.RunSequential(warm) })
	c.layer("orch.ckpt_overhead_s", ckptS-coldS)
	full := build()
	c.span("orch.RunSequential(cold, to the end)", func() { full.s.RunSequential(warm + tail) })
	c.check("resumed state equals the cold run", stateDigest(full) == resumed)
}

// ---- placed workloads: netsplit_par, memsplit_par, memsplit_opt ----

func netsplitPar(c *ctx) {
	dur := c.dur(3 * sim.Millisecond) // the issue: 6 ms, at twice the arrival rate
	type netsplit struct {
		s   *orch.Simulation
		b   *netsim.Built
		eng *wl.Engine

		genS, buildS, installS float64
	}
	build := func() *netsplit {
		n := &netsplit{}
		var topo *netsim.Topology
		var assign []int
		n.genS = c.span("netsim.FatTree", func() {
			var meta netsim.FatTreeMeta
			topo, meta = netsim.FatTree(8, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
			assign = decomp.EvenFatTree(meta, len(topo.Switches), 4)
		})
		n.buildS = c.span("netsim.Build", func() { n.b = topo.Build("net", c.seed, assign, nil) })
		n.installS = c.span("workload.Install", func() {
			n.eng = wl.Install(n.b.Hosts, wl.Spec{
				Pattern: wl.Shuffle{},
				Sizes:   wl.Pareto{Min: 600, Alpha: 1.3, Max: 20_000},
				Arrival: wl.Open{FlowsPerSec: 200_000},
				Seed:    c.seed,
			})
		})
		c.span("instantiate.WirePartitions", func() {
			n.s = orch.New()
			instantiate.WirePartitions(n.s, topo, n.b, true)
			n.s.AddAuxState("wl", n.eng)
		})
		return n
	}

	var n *netsplit
	var pl *orch.ExecutionPlan
	var planS float64
	var planErr error
	c.setup(func() {
		n = build()
		planS = c.span("orch.Plan", func() { pl, planErr = n.s.Plan(blocked(n.s.NumComponents())) })
	})
	c.check("plan", planErr == nil)
	var analyse func()
	if c.traced {
		analyse = c.attachProfiler(n.s, dur)
	}
	c.run(dur, func() error { return pl.RunParallel(dur) })
	c.events(c.linkLayers(n.s.Group))
	c.layer("orch.plan_s", planS)
	c.layer("orch.groups", float64(pl.NumGroups()))
	c.layer("topogen.gen_s", n.genS)
	c.layer("netsim.build_s", n.buildS)
	c.layer("workload.install_s", n.installS)
	c.switchLayers(n.b.Switches, len(n.b.Hosts))
	c.engineResults(n.eng)
	c.poolLayers(n.s)
	if !c.traced {
		return
	}
	analyse()
	c.placedExtras(n.s, pl, dur, func() (*orch.Simulation, func()) {
		ref := build()
		return ref.s, func() { c.fold("flows", flowResults(ref.eng)...) }
	})
}

// flowResults lists the simulated results of a workload engine that go into
// the digest; FCTs as integer nanoseconds, since sim.Time prints rounded.
func flowResults(eng *wl.Engine) []any {
	r := eng.Collect()
	return []any{r.FlowsStarted, r.FlowsCompleted, r.BytesSent,
		int64(r.FCT.Percentile(50)), int64(r.FCT.Percentile(99))}
}

func memsplit(c *ctx, optimistic bool) {
	dur := c.dur(1500 * sim.Microsecond) // the issue: 6 ms
	type split struct {
		s     *orch.Simulation
		cores []*memsim.Core
		mem   *memsim.Mem
	}
	build := func() *split {
		m := &split{s: orch.New()}
		c.span("memsim.BuildSplit", func() { m.cores, m.mem = memsim.BuildSplit(m.s, 8, memsim.DefaultParams()) })
		return m
	}
	foldResults := func(m *split) (blocks uint64) {
		for i, core := range m.cores {
			blocks += core.Blocks
			c.fold("core", i, core.Blocks)
		}
		c.fold("mem", m.mem.Txns)
		return blocks
	}

	var m *split
	var pl *orch.ExecutionPlan
	var planS float64
	var planErr error
	c.setup(func() {
		m = build()
		planS = c.span("orch.Plan", func() { pl, planErr = m.s.Plan(blocked(m.s.NumComponents())) })
	})
	c.check("plan", planErr == nil)
	// The profiler's tick is a closure event, which no group can snapshot:
	// attaching it to an optimistic run would demote every group.
	var analyse func()
	if c.traced && !optimistic {
		analyse = c.attachProfiler(m.s, dur)
	}
	var spec *orch.SpecReport
	c.run(dur, func() (err error) {
		if optimistic {
			spec, err = pl.RunOptimistic(dur)
			return err
		}
		return pl.RunParallel(dur)
	})
	c.events(c.linkLayers(m.s.Group))
	if spec != nil {
		c.specLayers(spec)
	}
	c.layer("orch.plan_s", planS)
	c.layer("orch.groups", float64(pl.NumGroups()))
	blocks := foldResults(m)
	c.check("blocks executed > 0", blocks > 0)
	c.layer("memsim.blocks", float64(blocks))
	c.layer("memsim.txns", float64(m.mem.Txns))
	if !c.traced {
		return
	}
	if analyse != nil {
		analyse()
	}
	c.placedExtras(m.s, pl, dur, func() (*orch.Simulation, func()) {
		ref := build()
		return ref.s, func() { foldResults(ref) }
	})
}
