package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpstack"
)

// Fig. 6 — DCTCP congestion-control behavior versus ECN marking threshold
// on a dumbbell with a 10G bottleneck and two hosts per side, in three
// configurations: protocol-level ns-3, mixed fidelity (one detailed pair +
// one ns-3 pair), and full end-to-end (all four hosts detailed gem5).
// Host-internal behavior (stack costs, timing noise) lowers achievable
// throughput at small thresholds; the protocol-level simulation misses it.

// Fig6Point is one (config, K) measurement.
type Fig6Point struct {
	Config Fig4Config
	// KPackets is the marking threshold in MSS-sized packets.
	KPackets int
	// Goodput is aggregate receiver goodput in bits/s across both flows.
	Goodput float64
	// Flow0 is the measured (first) flow's goodput — the detailed pair in
	// mixed and e2e configurations.
	Flow0 float64
	// Retransmits across senders (DCTCP should keep this at zero).
	Retransmits uint64
}

// Fig6Result holds the three series.
type Fig6Result struct {
	Ks     []int
	Points []Fig6Point
}

// Get returns the measurement for (config, k).
func (r *Fig6Result) Get(cfg Fig4Config, k int) Fig6Point {
	for _, p := range r.Points {
		if p.Config == cfg && p.KPackets == k {
			return p
		}
	}
	panic("experiments: missing fig6 point")
}

// String renders the three series.
func (r *Fig6Result) String() string {
	t := stats.NewTable("K(pkts)", "ns3", "mixed(flow0)", "e2e(flow0)", "mixed/e2e", "ns3/e2e")
	for _, k := range r.Ks {
		ns3 := r.Get(ConfigNS3, k).Flow0
		mx := r.Get(ConfigMixed, k).Flow0
		e2e := r.Get(ConfigE2E, k).Flow0
		t.Row(k, stats.FmtBps(ns3), stats.FmtBps(mx), stats.FmtBps(e2e),
			fmt.Sprintf("%.2f", mx/e2e), fmt.Sprintf("%.2f", ns3/e2e))
	}
	var b strings.Builder
	b.WriteString("Fig 6: DCTCP throughput vs ECN marking threshold (dumbbell, 10G bottleneck)\n")
	b.WriteString(t.String())
	b.WriteString("expected shape: mixed tracks e2e closely; ns-3 diverges (overestimates at small K)\n")
	return b.String()
}

// fig6NICParams enables i40e-style interrupt moderation, the dominant
// host-side effect on DCTCP at small marking thresholds: ACKs arrive in
// bursts, the sender transmits in bursts, and the instantaneous queue
// overshoots the threshold.
func fig6NICParams() nicsim.Params {
	np := nicsim.DefaultParams()
	np.IRQModeration = 20 * sim.Microsecond
	return np
}

// fig6HostParams returns gem5 parameters tuned for a 10G-capable stack
// (interrupt coalescing, GRO-like batching reduce per-packet costs).
func fig6HostParams() hostsim.Params {
	p := hostsim.Gem5Params()
	p.IRQOverhead = 300 * sim.Nanosecond
	p.RxStackCost = 600 * sim.Nanosecond
	p.TxStackCost = 800 * sim.Nanosecond
	return p
}

// fig6Run measures one (config, K) cell.
func fig6Run(cfg Fig4Config, kPackets int, opts Options) Fig6Point {
	dur := opts.Dur(60*sim.Millisecond, 30*sim.Millisecond)
	warmup := 10 * sim.Millisecond

	// Pair 0 transfers l0->r0 and pair 1 r1->l1, so each direction of the
	// bottleneck carries one bulk flow.
	topo, m := netsim.Dumbbell(netsim.DumbbellSpec{
		HostsPerSide: 2, EdgeRate: 10 * sim.Gbps, BottleneckRate: 10 * sim.Gbps,
		EdgeDelay: instantiate.EthLatency, BottleneckDelay: sim.Microsecond,
	})
	sys := &config.System{Topo: topo}
	pairs := [2][2]int{{m.Left[0], m.Right[0]}, {m.Right[1], m.Left[1]}}
	np := fig6NICParams()
	for i, p := range pairs {
		sys.Host(p[0]).SetSeed(opts.Seed + uint64(i)).NIC = &np
		sys.Host(p[1]).SetSeed(opts.Seed + uint64(10+i)).NIC = &np
	}
	// An observer on the left switch records delivered bytes at warmup
	// end; the remainder is measured.
	var rcvs, snds []*tcpstack.Conn
	var atWarmup [2]int64
	obs := topo.AddHost("obs", proto.HostIP(250), m.SwLeft, sim.Gbps, instantiate.EthLatency)
	sys.Host(obs).Apps = []config.App{func(h core.Host) {
		h.After(warmup, func() {
			for i, r := range rcvs {
				atWarmup[i] = r.Delivered()
			}
		})
	}}

	c := config.Choices{
		Seed:       opts.Seed,
		HostParams: func(core.Fidelity) hostsim.Params { return fig6HostParams() },
	}
	switch cfg {
	case ConfigMixed:
		c.FidelityOverride = atFidelity(core.Detailed, "l0", "r0")
	case ConfigE2E:
		c.FidelityOverride = atFidelity(core.Detailed, "l0", "r0", "l1", "r1")
	}
	inst := mustInstantiate(sys, c)
	for end, sw := range []int{m.SwLeft, m.SwRight} {
		ifc := inst.Built.Switches[sw].Ifaces()[inst.Built.LinkIfaces[m.Bottleneck][end]]
		ifc.MarkThresholdBytes = kPackets * (tcpstack.MSS + 54)
		ifc.QueueCapBytes = 4 << 20
	}
	// One DCTCP flow per pair, on whichever tier the pair runs.
	for i, p := range pairs {
		src, dst := topo.Hosts[p[0]].Name, topo.Hosts[p[1]].Name
		port := uint16(41000 + i)
		var snd, rcv *tcpstack.Conn
		if dl, dr := inst.Detailed[src], inst.Detailed[dst]; dl != nil {
			snd = dl.Host.DialTCP(dr.Host.LocalIP(), port, proto.PortBulk, tcpstack.CCDCTCP, 0, nil)
			rcv = dr.Host.ListenTCP(dl.Host.LocalIP(), proto.PortBulk, port, tcpstack.CCDCTCP)
			dl.Host.AddApp(hostsim.AppFunc(func(*hostsim.Host) { snd.StartFlow() }))
		} else {
			hl := inst.NetHosts[src]
			snd, rcv = netsim.NewFlow(hl, inst.NetHosts[dst], port, proto.PortBulk, netsim.CCDCTCP, 0, nil)
			hl.SetApp(netsim.AppFunc(func(*netsim.Host) { snd.StartFlow() }))
		}
		snds, rcvs = append(snds, snd), append(rcvs, rcv)
	}

	newScenario(inst.Sim, dur).run("", nil)

	var bytes int64
	var rtx uint64
	for i, r := range rcvs {
		bytes += r.Delivered() - atWarmup[i]
	}
	for _, sd := range snds {
		rtx += sd.Retransmits
	}
	return Fig6Point{
		Config: cfg, KPackets: kPackets,
		Goodput:     stats.Throughput(bytes, dur-warmup),
		Flow0:       stats.Throughput(rcvs[0].Delivered()-atWarmup[0], dur-warmup),
		Retransmits: rtx,
	}
}

// Fig6 sweeps the marking threshold for all three configurations.
func Fig6(opts Options) *Fig6Result {
	r := &Fig6Result{Ks: []int{2, 4, 8, 16, 32, 64}}
	for _, cfg := range []Fig4Config{ConfigNS3, ConfigMixed, ConfigE2E} {
		for _, k := range r.Ks {
			r.Points = append(r.Points, fig6Run(cfg, k, opts))
		}
	}
	return r
}
