package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/kv"
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

// fig4Params collects the case study's fixed parameters.
type fig4Params struct {
	nServers, nClients int
	serverLinkRate     int64
	clientLinkRate     int64
	valueSize          int
	outstanding        int // closed-loop window per client (offered load)
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

// fig4Run builds and runs one (system, config) cell.
func fig4Run(sys Fig4System, cfg Fig4Config, opts Options, p fig4Params, dur sim.Time) Fig4Cell {
	sc, clients := kvCase{
		sys:             sys,
		detailedServers: cfg == ConfigE2E || cfg == ConfigMixed,
		detailedClient:  func(i int) (uint64, bool) { return opts.Seed + uint64(10+i), cfg == ConfigE2E },
	}.build(opts, p, dur)
	m := sc.run("", nil)
	cell := Fig4Cell{System: sys, Config: cfg, Cores: sc.sim.NumComponents(), WallMs: m.wallMs}
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
