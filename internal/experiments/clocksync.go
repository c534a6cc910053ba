package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/clocksync"
	"repro/internal/apps/crdb"
	"repro/internal/apps/kv"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// §4.3 — the clock-synchronization case study: NTP versus PTP host clock
// synchronization in a large three-tier datacenter full of background bulk
// traffic, and its effect on a commit-wait database. Seven detailed hosts
// (2 replicas, 4 clients, 1 clock server) are embedded in the topology;
// every other host is protocol-level background load. PTP uses NIC hardware
// timestamping plus transparent-clock switches.

// ClockSyncMode selects the synchronization protocol.
type ClockSyncMode string

// The two compared configurations.
const (
	ModeNTP ClockSyncMode = "ntp"
	ModePTP ClockSyncMode = "ptp"
)

// ClockSyncRow is one configuration's results.
type ClockSyncRow struct {
	Mode ClockSyncMode
	// Bound is the mean clock error bound chrony reports on the leader.
	Bound sim.Time
	// TrueErr is the actual leader clock error at the end (ground truth).
	TrueErr sim.Time
	// WriteTput is committed writes/s across the four clients.
	WriteTput float64
	// WriteP50 and ReadP50 are client-observed latencies.
	WriteP50, ReadP50 sim.Time
	// ModeledRunSPerSimS is the modeled simulation slowdown.
	ModeledRunSPerSimS float64
	// Cores is the component count.
	Cores int
	// BackgroundHosts is the number of protocol-level hosts.
	BackgroundHosts int
}

// ClockSyncResult holds both rows.
type ClockSyncResult struct {
	Rows []ClockSyncRow
	Dur  sim.Time
}

// Get returns the row for a mode.
func (r *ClockSyncResult) Get(m ClockSyncMode) ClockSyncRow {
	for _, row := range r.Rows {
		if row.Mode == m {
			return row
		}
	}
	panic("experiments: missing clocksync row")
}

// String renders the §4.3 numbers.
func (r *ClockSyncResult) String() string {
	t := stats.NewTable("mode", "clock-bound", "true-err", "write-tput", "write-p50", "read-p50", "cores", "model-run(s/sim-s)")
	for _, row := range r.Rows {
		t.Row(string(row.Mode), row.Bound, row.TrueErr, stats.FmtRate(row.WriteTput),
			row.WriteP50, row.ReadP50, row.Cores, fmt.Sprintf("%.0f", row.ModeledRunSPerSimS))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Case study: NTP vs PTP clock sync + commit-wait DB (%d background hosts, %v)\n",
		r.Rows[0].BackgroundHosts, r.Dur)
	b.WriteString(t.String())
	ntp, ptp := r.Get(ModeNTP), r.Get(ModePTP)
	fmt.Fprintf(&b, "bound: %v -> %v (paper: 11us -> 943ns)\n", ntp.Bound, ptp.Bound)
	fmt.Fprintf(&b, "write tput: +%.0f%% with PTP (paper: +38%%)\n",
		(ptp.WriteTput/ntp.WriteTput-1)*100)
	fmt.Fprintf(&b, "write p50: %+.0f%% with PTP (paper: -15%%)\n",
		(float64(ptp.WriteP50)/float64(ntp.WriteP50)-1)*100)
	return b.String()
}

// clockSyncSpec derives the (possibly scaled-down) datacenter topology.
func clockSyncSpec(opts Options) netsim.ThreeTierSpec {
	spec := netsim.DefaultThreeTier
	if opts.scale() < 1 {
		hpr := int(float64(spec.HostsPerRack) * opts.scale())
		if hpr < 3 {
			hpr = 3 // the leader's rack hosts two measured clients
		}
		spec.HostsPerRack = hpr
	}
	return spec
}

// clockSyncCase is one mode's declared system and the handles its
// measurement reads.
type clockSyncCase struct {
	sys *config.System
	// leader is the leader replica's chrony.
	leader *clocksync.Chrony
	// clients are the four detailed clients.
	clients []*kv.Client
	// ptp lists the PTP slaves by host name; each needs its host's NIC,
	// which exists once the system is instantiated.
	ptp map[string]*clocksync.PTPSlave
}

// onHost adapts an app that needs the detailed host's clock and NIC.
func onHost(run func(*hostsim.Host)) config.App {
	return func(h core.Host) { run(h.(*hostsim.Host)) }
}

// clockSyncSystem declares the case study: the datacenter with transparent
// clocks everywhere, and seven detailed hosts — replicas in the first rack
// of agg0, the clock server in agg0's third rack, two measured write
// clients beside the leader and two social-mix clients across the
// datacenter — running chrony, NTP or PTP, the commit-wait database and
// its clients. Every other host is protocol-level background load.
func clockSyncSystem(mode ClockSyncMode, opts Options, warm sim.Time) *clockSyncCase {
	topo, meta := netsim.ThreeTier(clockSyncSpec(opts))
	for i := range topo.Switches {
		topo.Switches[i].TC = true // PTP transparent clocks everywhere
	}
	cs := &clockSyncCase{sys: &config.System{Topo: topo}, ptp: make(map[string]*clocksync.PTPSlave)}
	// declare names slot name's detailed host: a qemu machine seeded
	// opts.Seed+k whose oscillator (and NIC PHC, 5 ppm off it) drifts by
	// drift ppm with a slow wander; drift 0 is a perfect reference.
	declare := func(name string, slot, k int, drift float64, apps ...config.App) {
		topo.Hosts[slot].Name = name
		seed := opts.Seed + uint64(k)
		h := cs.sys.Host(slot).SetSeed(seed)
		h.Fidelity, h.Apps = core.Coarse, apps
		if drift != 0 {
			np := nicsim.DefaultParams()
			np.PHCDriftPPM = drift + 5
			h.NIC = &np
			h.Osc = hostsim.Oscillator{
				Offset:   sim.Time(seed%7) * sim.Millisecond,
				DriftPPM: drift, WanderPPM: 1,
				WanderPeriod: 10 * sim.Second, Phase: float64(seed),
			}
		}
	}
	rack := meta.HostsByRack
	leaderIP, followerIP := topo.Hosts[rack[0][0][0]].IP, topo.Hosts[rack[0][1][0]].IP
	clockIP := topo.Hosts[rack[0][2][0]].IP

	// Clock synchronization: chrony on both replicas.
	syncInterval := 50 * sim.Millisecond
	chrony := func(name string) (*clocksync.Chrony, []config.App) {
		ch := clocksync.NewChrony()
		apps := []config.App{onHost(ch.Run)}
		switch mode {
		case ModeNTP:
			nc := &clocksync.NTPClient{Server: clockIP, Poll: syncInterval}
			nc.OnMeasurement = ch.OnMeasurement
			apps = append(apps, onHost(nc.Run))
		case ModePTP:
			slave := &clocksync.PTPSlave{Master: clockIP}
			ref := &clocksync.PHCRefClock{Slave: slave, Poll: syncInterval}
			ref.OnMeasurement = ch.OnMeasurement
			cs.ptp[name] = slave
			apps = append(apps, onHost(slave.Run), onHost(ref.Run))
		}
		return ch, apps
	}
	// Commit-wait database: the leader replicates to the follower; commit
	// wait is the leader chrony's live bound.
	leader, leaderApps := chrony("replica0")
	cs.leader = leader
	lp := crdb.DefaultParams()
	lp.Follower = followerIP
	lp.Bound = leader.Bound
	declare("replica0", rack[0][0][0], 1, 32, append(leaderApps, crdb.NewServer(lp).Run)...)
	_, followerApps := chrony("replica1")
	declare("replica1", rack[0][1][0], 2, -21, append(followerApps, crdb.NewServer(crdb.DefaultParams()).Run)...)
	// The clock server is the stratum-1/GPS reference.
	var clockApp config.App
	switch mode {
	case ModeNTP:
		clockApp = onHost((&clocksync.NTPServer{}).Run)
	case ModePTP:
		gm := &clocksync.PTPMaster{Slaves: []proto.IP{leaderIP, followerIP}, Interval: syncInterval}
		clockApp = onHost(gm.Run)
	}
	declare("clocksrv", rack[0][2][0], 3, 0, clockApp)

	// Two clients issue the measured write transactions from the leader's
	// rack (short paths, so the commit wait is a visible share of write
	// latency); two issue the read-mostly social mix across the datacenter.
	for i, slot := range []int{rack[0][0][1], rack[0][0][2], rack[2][0][0], rack[3][0][0]} {
		cp := crdb.SocialClientParams(uint32(i), leaderIP)
		cp.WarmUp = warm
		cp.Outstanding = 1
		if i < 2 {
			cp.WriteFrac = 1
		}
		cli := kv.NewClient(cp)
		cs.clients = append(cs.clients, cli)
		declare(fmt.Sprintf("client%d", i), slot, 4+i, []float64{18, -9, 44, 27}[i], cli.Run)
	}
	return cs
}

// runClockSync executes one mode.
func runClockSync(mode ClockSyncMode, opts Options) ClockSyncRow {
	spec := clockSyncSpec(opts)
	dur := opts.Dur(20*sim.Second, 2*sim.Second)
	warm := dur / 4
	cs := clockSyncSystem(mode, opts, warm)
	inst := mustInstantiate(cs.sys, config.Choices{Seed: opts.Seed})
	for name, slave := range cs.ptp {
		slave.NIC = inst.Detailed[name].NIC
	}

	// Background bulk pairs among all remaining protocol-level hosts,
	// sized to load the aggregation/core layer to ~30%. Jumbo frames keep
	// simulated event counts manageable at full scale.
	var bg []*netsim.Host
	for _, h := range inst.Built.Hosts {
		if h != nil {
			bg = append(bg, h)
		}
	}
	pairs := shuffledPairs(bg, opts.Seed^0xb6)
	pairRate := min(0.3*float64(spec.CoreRate)*float64(spec.Aggs)/float64(len(pairs)), 0.3*float64(spec.HostRate))
	bulkTraffic(pairs, 8900, pairRate, false, nil) // jumbo frames

	m := newScenario(inst.Sim, dur).run("", nil)
	row := ClockSyncRow{
		Mode:            mode,
		Bound:           cs.leader.Bounds.Mean(),
		TrueErr:         cs.leader.TrueError(),
		Cores:           inst.Sim.NumComponents(),
		BackgroundHosts: len(bg),
	}
	var writes uint64
	var wl, rl stats.Latency
	for _, c := range cs.clients {
		writes += uint64(c.WriteLat.Count())
		for _, pt := range c.WriteLat.CDF(200) {
			wl.Add(pt.Value)
		}
		for _, pt := range c.ReadLat.CDF(200) {
			rl.Add(pt.Value)
		}
	}
	row.WriteTput = stats.Rate(int(writes), dur-warm)
	row.WriteP50 = wl.Percentile(50)
	row.ReadP50 = rl.Percentile(50)
	if m.model.SimSpeed > 0 {
		row.ModeledRunSPerSimS = 1 / m.model.SimSpeed
	}
	return row
}

// ClockSync runs both modes.
func ClockSync(opts Options) *ClockSyncResult {
	r := &ClockSyncResult{Dur: opts.Dur(20*sim.Second, 2*sim.Second)}
	r.Rows = append(r.Rows, runClockSync(ModeNTP, opts), runClockSync(ModePTP, opts))
	return r
}
