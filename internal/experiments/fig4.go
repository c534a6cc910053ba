package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/kv"
	"repro/internal/apps/netcache"
	"repro/internal/apps/pegasus"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig. 4 / §4.2 — the in-network-processing case study: NetCache vs
// Pegasus under three simulation configurations (protocol-level ns-3, full
// end-to-end, mixed fidelity), 2 servers + 3 clients on one switch,
// zipf-1.8 keys, 70% writes, all clients at the same offered load.

// Fig4Config names a simulation configuration.
type Fig4Config string

// The three configurations compared in Fig. 4.
const (
	ConfigNS3   Fig4Config = "ns3"
	ConfigE2E   Fig4Config = "e2e"
	ConfigMixed Fig4Config = "mixed"
)

// Fig4System names an in-network system.
type Fig4System string

// The two systems under evaluation.
const (
	SystemNetCache Fig4System = "netcache"
	SystemPegasus  Fig4System = "pegasus"
)

// Fig4Cell is one bar of the figure plus the §4.2 resource numbers.
type Fig4Cell struct {
	System Fig4System
	Config Fig4Config
	// Tput is completed client operations per second.
	Tput float64
	// MeanLat and P99 are end-to-end request latencies.
	MeanLat, P99 sim.Time
	// Cores is the number of simulator components (one core each).
	Cores int
	// ModeledRunSPerSimS is the modeled simulation runtime in seconds per
	// simulated second (from the decomposition performance model).
	ModeledRunSPerSimS float64
	// WallMs is this harness's measured wall-clock milliseconds.
	WallMs float64
	// SwitchHitFrac is the fraction of completed ops served by the switch.
	SwitchHitFrac float64
}

// Fig4Result holds all six cells.
type Fig4Result struct {
	Dur   sim.Time
	Cells []Fig4Cell
}

// Get returns the cell for (system, config).
func (r *Fig4Result) Get(sys Fig4System, cfg Fig4Config) Fig4Cell {
	for _, c := range r.Cells {
		if c.System == sys && c.Config == cfg {
			return c
		}
	}
	panic("experiments: missing fig4 cell")
}

// String renders the figure's bar groups as a table.
func (r *Fig4Result) String() string {
	t := stats.NewTable("config", "system", "tput", "mean-lat", "p99-lat", "cores", "model-run(s/sim-s)", "switch-hit%")
	for _, cfg := range []Fig4Config{ConfigNS3, ConfigE2E, ConfigMixed} {
		for _, sys := range []Fig4System{SystemNetCache, SystemPegasus} {
			c := r.Get(sys, cfg)
			t.Row(string(cfg), string(sys), stats.FmtRate(c.Tput), c.MeanLat, c.P99,
				c.Cores, fmt.Sprintf("%.1f", c.ModeledRunSPerSimS),
				fmt.Sprintf("%.0f%%", c.SwitchHitFrac*100))
		}
	}
	var b strings.Builder
	b.WriteString("Fig 4: NetCache vs Pegasus throughput under different simulation configurations\n")
	b.WriteString(t.String())
	nc, pg := r.Get(SystemNetCache, ConfigNS3), r.Get(SystemPegasus, ConfigNS3)
	fmt.Fprintf(&b, "protocol-level: NetCache/Pegasus = %.2f (paper: ~1.33)\n", nc.Tput/pg.Tput)
	nc, pg = r.Get(SystemNetCache, ConfigE2E), r.Get(SystemPegasus, ConfigE2E)
	fmt.Fprintf(&b, "end-to-end:     Pegasus/NetCache = %.2f (paper: ~1.47)\n", pg.Tput/nc.Tput)
	return b.String()
}

// fig4Params collects the case study's parameters.
type fig4Params struct {
	nServers, nClients int
	serverLinkRate     int64
	clientLinkRate     int64
	valueSize          int
	outstanding        int     // closed-loop window per client (offered load)
	rate               float64 // open-loop requests/s per client; 0: closed-loop
	hotKeys            int
	serverParams       kv.ServerParams
	warmup             sim.Time
}

func defaultFig4Params() fig4Params {
	sp := kv.DefaultServerParams()
	sp.ValueSize = 512 // reads return full objects
	return fig4Params{
		nServers: 2, nClients: 3,
		serverLinkRate: 500 * sim.Mbps,
		clientLinkRate: 10 * sim.Gbps,
		valueSize:      64, // writes carry small updates
		outstanding:    24,
		hotKeys:        64,
		serverParams:   sp,
		warmup:         5 * sim.Millisecond,
	}
}

const fig4VIP = proto.IP(0x0a00ff01)

// kvSystem declares the in-network KV case study (Figs. 4 and 5): two
// servers and three clients on one switch running the dataplane, and
// returns it with its clients. Which hosts run detailed is a cell's choice;
// server i's host seed is opts.Seed+i, client i's clientSeed(i).
func kvSystem(dataplane Fig4System, opts Options, p fig4Params, clientSeed func(i int) uint64) (*config.System, []*kv.Client) {
	sys := &config.System{Topo: &netsim.Topology{}}
	sw := sys.Topo.AddSwitch("sw")
	serverIPs := make([]proto.IP, p.nServers)
	for i := range serverIPs {
		serverIPs[i] = proto.HostIP(uint32(100 + i))
	}
	switch dataplane {
	case SystemNetCache:
		sys.Dataplanes = map[int]netsim.Dataplane{sw: netcache.New(p.hotKeys, p.serverParams.ValueSize)}
	case SystemPegasus:
		sys.Dataplanes = map[int]netsim.Dataplane{sw: pegasus.New(fig4VIP, serverIPs, p.hotKeys)}
	}
	for i, ip := range serverIPs {
		slot := sys.Topo.AddHost(fmt.Sprintf("srv%d", i), ip, sw, p.serverLinkRate, instantiate.EthLatency)
		sys.Host(slot).SetSeed(opts.Seed + uint64(i)).Apps = []config.App{kv.NewServer(p.serverParams).Run}
	}
	var clients []*kv.Client
	for i := 0; i < p.nClients; i++ {
		cp := kv.DefaultClientParams(uint32(i), serverIPs)
		cp.Outstanding = p.outstanding
		cp.ValueSize = p.valueSize
		cp.WarmUp = p.warmup
		if dataplane == SystemPegasus {
			cp.VIP = fig4VIP
		}
		if p.rate > 0 {
			cp.Outstanding, cp.Rate = 0, p.rate
		}
		cli := kv.NewClient(cp)
		clients = append(clients, cli)
		slot := sys.Topo.AddHost(fmt.Sprintf("cli%d", i), proto.HostIP(uint32(1+i)), sw,
			p.clientLinkRate, instantiate.EthLatency)
		sys.Host(slot).SetSeed(clientSeed(i)).Apps = []config.App{cli.Run}
	}
	return sys, clients
}

// fig4Run builds and runs one (system, config) cell.
func fig4Run(sys Fig4System, cfg Fig4Config, opts Options, p fig4Params, dur sim.Time) Fig4Cell {
	system, clients := kvSystem(sys, opts, p, func(i int) uint64 { return opts.Seed + uint64(10+i) })
	c := config.Choices{Seed: opts.Seed}
	switch cfg {
	case ConfigE2E:
		c.DefaultFidelity = core.Coarse
	case ConfigMixed:
		c.FidelityOverride = atFidelity(core.Coarse, "srv0", "srv1")
	}
	inst := mustInstantiate(system, c)
	m := newScenario(inst.Sim, dur).run("", nil)
	cell := Fig4Cell{System: sys, Config: cfg, Cores: inst.Sim.NumComponents(), WallMs: m.wallMs}
	var completed, hits uint64
	var all stats.Latency // every client's latency samples, merged
	for _, c := range clients {
		completed += c.Completed
		hits += c.SwitchHits
		for _, pt := range c.Lat.CDF(200) {
			all.Add(pt.Value)
		}
	}
	cell.Tput = stats.Rate(int(completed), dur-p.warmup)
	cell.MeanLat = all.Mean()
	cell.P99 = all.Percentile(99)
	if completed > 0 {
		cell.SwitchHitFrac = float64(hits) / float64(completed)
	}
	if m.model.SimSpeed > 0 {
		cell.ModeledRunSPerSimS = 1 / m.model.SimSpeed
	}
	return cell
}

// Fig4 runs all six cells.
func Fig4(opts Options) *Fig4Result {
	p := defaultFig4Params()
	dur := opts.Dur(60*sim.Millisecond, 20*sim.Millisecond)
	r := &Fig4Result{Dur: dur}
	for _, cfg := range []Fig4Config{ConfigNS3, ConfigE2E, ConfigMixed} {
		for _, sys := range []Fig4System{SystemNetCache, SystemPegasus} {
			r.Cells = append(r.Cells, fig4Run(sys, cfg, opts, p, dur))
		}
	}
	return r
}
