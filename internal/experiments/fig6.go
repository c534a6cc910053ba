package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
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

	n := netsim.New("net", opts.Seed)
	swL := n.AddSwitch("swL")
	swR := n.AddSwitch("swR")
	li, ri := n.ConnectSwitches(swL, swR, 10*sim.Gbps, 1*sim.Microsecond)
	for _, ifc := range []*netsim.Iface{swL.Ifaces()[li], swR.Ifaces()[ri]} {
		ifc.MarkThresholdBytes = kPackets * (tcpstack.MSS + 54)
		ifc.QueueCapBytes = 4 << 20
	}

	s := orch.New()
	s.Add(n)

	detailedPairs := 0
	switch cfg {
	case ConfigMixed:
		detailedPairs = 1
	case ConfigE2E:
		detailedPairs = 2
	}

	var rcvs []*tcpstack.Conn
	var snds []*tcpstack.Conn

	for i := 0; i < 2; i++ {
		// Pair 0 transfers left->right, pair 1 right->left: each direction
		// of the bottleneck carries one bulk flow.
		lIP := proto.HostIP(uint32(1 + i))
		rIP := proto.HostIP(uint32(101 + i))
		if i == 1 {
			lIP, rIP = rIP, lIP
		}
		port := uint16(41000 + i)
		swSnd, swRcv := swL, swR
		if i == 1 {
			swSnd, swRcv = swR, swL
		}
		if i < detailedPairs {
			extL := n.AddExternal(swSnd, fmt.Sprintf("l%d", i), 10*sim.Gbps, lIP)
			extR := n.AddExternal(swRcv, fmt.Sprintf("r%d", i), 10*sim.Gbps, rIP)
			dl := instantiate.NewDetailedHost(fmt.Sprintf("l%d", i), lIP,
				fig6HostParams(), fig6NICParams(), opts.Seed+uint64(i))
			dr := instantiate.NewDetailedHost(fmt.Sprintf("r%d", i), rIP,
				fig6HostParams(), fig6NICParams(), opts.Seed+uint64(10+i))
			snd := dl.Host.DialTCP(rIP, port, proto.PortBulk, tcpstack.CCDCTCP, 0, nil)
			rcv := dr.Host.ListenTCP(lIP, proto.PortBulk, port, tcpstack.CCDCTCP)
			dl.Host.AddApp(hostsim.AppFunc(func(*hostsim.Host) { snd.StartFlow() }))
			dl.Wire(s, n, extL)
			dr.Wire(s, n, extR)
			snds = append(snds, snd)
			rcvs = append(rcvs, rcv)
		} else {
			hl := n.AddHost(fmt.Sprintf("l%d", i), lIP)
			hr := n.AddHost(fmt.Sprintf("r%d", i), rIP)
			n.ConnectHostSwitch(hl, swSnd, 10*sim.Gbps, instantiate.EthLatency)
			n.ConnectHostSwitch(hr, swRcv, 10*sim.Gbps, instantiate.EthLatency)
			snd, rcv := netsim.NewFlow(hl, hr, port, proto.PortBulk, netsim.CCDCTCP, 0, nil)
			hl.SetApp(netsim.AppFunc(func(*netsim.Host) { snd.StartFlow() }))
			snds = append(snds, snd)
			rcvs = append(rcvs, rcv)
		}
	}

	// Record delivered bytes at warmup end, measure the remainder.
	var atWarmup [2]int64
	markWarm := netsim.AppFunc(func(h *netsim.Host) {
		h.After(warmup, func() {
			for i, r := range rcvs {
				atWarmup[i] = r.Delivered()
			}
		})
	})
	// Attach the warmup marker to a fresh observer host on the left switch.
	obs := n.AddHost("obs", proto.HostIP(250))
	n.ConnectHostSwitch(obs, swL, sim.Gbps, instantiate.EthLatency)
	obs.SetApp(markWarm)
	n.ComputeRoutes()

	newScenario(s, dur).run("", nil)

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
