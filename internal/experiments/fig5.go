package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig. 5 — Pegasus latency CDFs measured by an ns-3 client versus a qemu
// client in the same mixed-fidelity simulation, once with servers
// saturated and once under low load. Under saturation the server queueing
// dominates and both clients measure the same distribution; under low load
// the detailed client's own stack contributes a visible share, so the
// protocol-level client under-reports latency.

// Fig5Workload names a load level.
type Fig5Workload string

// The two workloads compared.
const (
	WorkloadSaturated   Fig5Workload = "saturated"
	WorkloadUnsaturated Fig5Workload = "unsaturated"
)

// Fig5Series is one CDF.
type Fig5Series struct {
	Workload Fig5Workload
	Client   string // "ns3" or "qemu"
	CDF      []stats.CDFPoint
	P50, P99 sim.Time
	Mean     sim.Time
	Samples  int
}

// Fig5Result holds the four series.
type Fig5Result struct {
	Series []Fig5Series
}

// Get returns the series for (workload, client).
func (r *Fig5Result) Get(w Fig5Workload, client string) Fig5Series {
	for _, s := range r.Series {
		if s.Workload == w && s.Client == client {
			return s
		}
	}
	panic("experiments: missing fig5 series")
}

// String renders per-series summaries and the paper's comparison ratios.
func (r *Fig5Result) String() string {
	t := stats.NewTable("workload", "client", "p50", "p99", "mean", "samples")
	for _, s := range r.Series {
		t.Row(string(s.Workload), s.Client, s.P50, s.P99, s.Mean, s.Samples)
	}
	var b strings.Builder
	b.WriteString("Fig 5: Pegasus latency CDFs, ns-3 vs qemu client, mixed-fidelity simulation\n")
	b.WriteString(t.String())
	sat := float64(r.Get(WorkloadSaturated, "qemu").P50) / float64(r.Get(WorkloadSaturated, "ns3").P50)
	uns := float64(r.Get(WorkloadUnsaturated, "qemu").P50) / float64(r.Get(WorkloadUnsaturated, "ns3").P50)
	fmt.Fprintf(&b, "saturated   qemu/ns3 median ratio: %.2f (paper: ~1, distributions match)\n", sat)
	fmt.Fprintf(&b, "unsaturated qemu/ns3 median ratio: %.2f (paper: clearly above 1)\n", uns)
	return b.String()
}

// fig5Run builds the mixed-fidelity Pegasus setup (2 detailed servers, 2
// ns-3 clients, 1 qemu client) under one workload and returns the two
// measured series.
func fig5Run(w Fig5Workload, opts Options) []Fig5Series {
	p := defaultFig4Params()
	if w == WorkloadUnsaturated {
		p.rate = 4000 // far below server capacity
	}
	sys, clients := kvSystem(SystemPegasus, opts, p, func(int) uint64 { return opts.Seed + 99 })
	inst := mustInstantiate(sys, config.Choices{
		Seed:             opts.Seed,
		FidelityOverride: atFidelity(core.Coarse, "srv0", "srv1", "cli2"),
	})
	newScenario(inst.Sim, opts.Dur(60*sim.Millisecond, 20*sim.Millisecond)).run("", nil)

	series := func(client string, lats ...*stats.Latency) Fig5Series {
		var merged stats.Latency
		for _, l := range lats {
			for _, pt := range l.CDF(400) {
				merged.Add(pt.Value)
			}
		}
		return Fig5Series{
			Workload: w, Client: client,
			CDF: merged.CDF(50),
			P50: merged.Percentile(50), P99: merged.Percentile(99),
			Mean: merged.Mean(), Samples: merged.Count(),
		}
	}
	return []Fig5Series{
		series("ns3", &clients[0].Lat, &clients[1].Lat),
		series("qemu", &clients[2].Lat),
	}
}

// Fig5 runs both workloads.
func Fig5(opts Options) *Fig5Result {
	r := &Fig5Result{}
	r.Series = append(r.Series, fig5Run(WorkloadSaturated, opts)...)
	r.Series = append(r.Series, fig5Run(WorkloadUnsaturated, opts)...)
	return r
}
