package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/clocksync"
	"repro/internal/apps/crdb"
	"repro/internal/apps/kv"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
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

// runClockSync executes one mode.
func runClockSync(mode ClockSyncMode, opts Options) ClockSyncRow {
	spec := clockSyncSpec(opts)
	topo, meta := netsim.ThreeTier(spec)
	for i := range topo.Switches {
		topo.Switches[i].TC = true // PTP transparent clocks everywhere
	}

	// Reserve 7 host slots for the detailed machines: replicas in the
	// first rack of agg0/agg1, clock server in agg0 rack1, clients spread.
	slots := []int{
		meta.HostsByRack[0][0][0], // replica 0 (leader)
		meta.HostsByRack[0][1][0], // replica 1 (adjacent rack, same agg)
		meta.HostsByRack[0][2][0], // clock server
		// Measured write clients sit in the leader's rack (short paths, so
		// the commit wait is a visible share of write latency)...
		meta.HostsByRack[0][0][1], meta.HostsByRack[0][0][2],
		// ...while the social-mix clients run across the datacenter.
		meta.HostsByRack[2][0][0], meta.HostsByRack[3][0][0],
	}
	for _, s := range slots {
		topo.MakeExternal(s)
	}
	b := topo.Build("net", opts.Seed, nil, nil)
	net := b.Parts[0]

	s := orch.New()
	s.Add(net)

	// Background bulk pairs among all remaining protocol-level hosts,
	// sized to load the aggregation/core layer to ~30%. Jumbo frames keep
	// simulated event counts manageable at full scale.
	var bg []*netsim.Host
	for _, h := range b.Hosts {
		if h != nil {
			bg = append(bg, h)
		}
	}
	pairs := shuffledPairs(bg, opts.Seed^0xb6)
	pairRate := min(0.3*float64(spec.CoreRate)*float64(spec.Aggs)/float64(len(pairs)), 0.3*float64(spec.HostRate))
	bulkTraffic(pairs, 8900, pairRate, false, nil) // jumbo frames

	// Detailed hosts.
	mkHost := func(slot int, name string, seed uint64, drift float64) *instantiate.DetailedHost {
		ip := topo.Hosts[slot].IP
		np := nicsim.DefaultParams()
		if drift != 0 {
			np.PHCDriftPPM = drift + 5
		}
		dh := instantiate.NewDetailedHost(name, ip, hostsim.QemuParams(), np, seed)
		if drift != 0 {
			dh.Host.Clock.Osc = hostsim.Oscillator{
				Offset:   sim.Time(seed%7) * sim.Millisecond,
				DriftPPM: drift, WanderPPM: 1,
				WanderPeriod: 10 * sim.Second, Phase: float64(seed),
			}
		}
		dh.Wire(s, net, b.Exts[slot])
		return dh
	}
	leader := mkHost(slots[0], "replica0", opts.Seed+1, 32)
	follower := mkHost(slots[1], "replica1", opts.Seed+2, -21)
	// The clock server is the stratum-1/GPS reference: perfect oscillator.
	clock := mkHost(slots[2], "clocksrv", opts.Seed+3, 0)
	var clients []*instantiate.DetailedHost
	for i := 0; i < 4; i++ {
		clients = append(clients, mkHost(slots[3+i], fmt.Sprintf("client%d", i),
			opts.Seed+uint64(4+i), []float64{18, -9, 44, 27}[i]))
	}

	// Clock synchronization: chrony on both replicas.
	syncInterval := 50 * sim.Millisecond
	mkChrony := func(dh *instantiate.DetailedHost) *clocksync.Chrony {
		ch := clocksync.NewChrony()
		dh.Host.AddApp(hostsim.AppFunc(ch.Run))
		switch mode {
		case ModeNTP:
			nc := &clocksync.NTPClient{Server: clock.Host.LocalIP(), Poll: syncInterval}
			nc.OnMeasurement = ch.OnMeasurement
			dh.Host.AddApp(hostsim.AppFunc(nc.Run))
		case ModePTP:
			slave := &clocksync.PTPSlave{Master: clock.Host.LocalIP(), NIC: dh.NIC}
			ref := &clocksync.PHCRefClock{Slave: slave, NIC: dh.NIC, Poll: syncInterval}
			ref.OnMeasurement = ch.OnMeasurement
			dh.Host.AddApp(hostsim.AppFunc(slave.Run))
			dh.Host.AddApp(hostsim.AppFunc(ref.Run))
		}
		return ch
	}
	leaderChrony := mkChrony(leader)
	mkChrony(follower)
	switch mode {
	case ModeNTP:
		srv := &clocksync.NTPServer{}
		clock.Host.AddApp(hostsim.AppFunc(srv.Run))
	case ModePTP:
		gm := &clocksync.PTPMaster{
			Slaves:   []proto.IP{leader.Host.LocalIP(), follower.Host.LocalIP()},
			Interval: syncInterval,
		}
		clock.Host.AddApp(hostsim.AppFunc(gm.Run))
	}

	// Commit-wait database: leader replicates to follower; commit wait is
	// the leader chrony's live bound.
	lp := crdb.DefaultParams()
	lp.Follower = follower.Host.LocalIP()
	lp.Bound = leaderChrony.Bound
	leaderSrv := crdb.NewServer(lp)
	leader.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { leaderSrv.Run(h) }))
	followerSrv := crdb.NewServer(crdb.DefaultParams())
	follower.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { followerSrv.Run(h) }))

	dur := opts.Dur(20*sim.Second, 2*sim.Second)
	warm := dur / 4
	// Two clients issue the measured write transactions; two issue the
	// read-mostly social background mix.
	var kvClients []*kv.Client
	for i, c := range clients {
		cp := crdb.SocialClientParams(uint32(i), leader.Host.LocalIP())
		cp.WarmUp = warm
		cp.Outstanding = 1
		if i < 2 {
			cp.WriteFrac = 1
		}
		cli := kv.NewClient(cp)
		kvClients = append(kvClients, cli)
		c.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { cli.Run(h) }))
	}

	m := newScenario(s, dur).run("", nil)
	row := ClockSyncRow{
		Mode:            mode,
		Bound:           leaderChrony.Bounds.Mean(),
		TrueErr:         leaderChrony.TrueError(),
		Cores:           s.NumComponents(),
		BackgroundHosts: len(bg),
	}
	var writes uint64
	var wl, rl stats.Latency
	for _, c := range kvClients {
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
