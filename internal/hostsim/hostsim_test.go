package hostsim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// rig is a two-detailed-host testbed: h1+nic1 and h2+nic2 on one switch.
type rig struct {
	sim    *orch.Simulation
	net    *netsim.Network
	h1, h2 *hostsim.Host
	n1, n2 *nicsim.NIC
	sw     *netsim.Switch
}

func buildRig(params hostsim.Params) *rig {
	r := &rig{}
	ip1, ip2 := proto.HostIP(1), proto.HostIP(2)
	r.net = netsim.New("net", 1)
	r.sw = r.net.AddSwitch("sw")
	ext1 := r.net.AddExternal(r.sw, "h1", 10*sim.Gbps, ip1)
	ext2 := r.net.AddExternal(r.sw, "h2", 10*sim.Gbps, ip2)
	r.net.ComputeRoutes()

	r.h1 = hostsim.New("h1", ip1, params, 42)
	r.h2 = hostsim.New("h2", ip2, params, 43)
	r.n1 = nicsim.New("n1", nicsim.DefaultParams())
	r.n2 = nicsim.New("n2", nicsim.DefaultParams())

	s := orch.New()
	s.Add(r.net)
	s.Add(r.h1)
	s.Add(r.n1)
	s.Add(r.h2)
	s.Add(r.n2)
	s.Connect("h1.pci", pci.DefaultLatency,
		orch.Side{Comp: r.h1, Bind: r.h1.BindNIC, Sink: r.h1.NICSink()},
		orch.Side{Comp: r.n1, Bind: r.n1.BindHost, Sink: r.n1.HostSink()})
	s.Connect("n1.eth", 500*sim.Nanosecond,
		orch.Side{Comp: r.n1, Bind: r.n1.BindNet, Sink: r.n1.NetSink()},
		orch.Side{Comp: r.net, Bind: ext1.Bind, Sink: ext1})
	s.Connect("h2.pci", pci.DefaultLatency,
		orch.Side{Comp: r.h2, Bind: r.h2.BindNIC, Sink: r.h2.NICSink()},
		orch.Side{Comp: r.n2, Bind: r.n2.BindHost, Sink: r.n2.HostSink()})
	s.Connect("n2.eth", 500*sim.Nanosecond,
		orch.Side{Comp: r.n2, Bind: r.n2.BindNet, Sink: r.n2.NetSink()},
		orch.Side{Comp: r.net, Bind: ext2.Bind, Sink: ext2})
	r.sim = s
	return r
}

func TestE2EPingRTT(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	// Echo server on h2.
	r.h2.BindUDP(7, func(src proto.IP, sport uint16, payload []byte, _ int) {
		r.h2.SendUDP(src, 7, sport, payload, 0)
	})
	var rtt sim.Time = -1
	var sentAt sim.Time
	r.h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) {
		rtt = r.h1.Now() - sentAt
	})
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		sentAt = h.Now()
		h.SendUDP(proto.HostIP(2), 8000, 7, make([]byte, 32), 0)
	}))
	r.sim.RunSequential(1 * sim.Millisecond)
	if rtt < 0 {
		t.Fatal("no echo received")
	}
	// The detailed path must cost far more than the ~2.6us protocol-level
	// RTT: PCI hops, DMA, IRQ and stack costs on both hosts, both ways.
	if rtt < 15*sim.Microsecond || rtt > 60*sim.Microsecond {
		t.Fatalf("e2e RTT = %v, want 15-60us", rtt)
	}
}

func TestServerCPUSerializesRequests(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	const serverOp = 8 * sim.Microsecond
	var replies []sim.Time
	r.h2.BindUDP(7, func(src proto.IP, sport uint16, payload []byte, _ int) {
		r.h2.Compute(serverOp, func() {
			r.h2.SendUDP(src, 7, sport, payload, 0)
		})
	})
	r.h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) {
		replies = append(replies, r.h1.Now())
	})
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		for i := 0; i < 10; i++ {
			h.SendUDP(proto.HostIP(2), 8000, 7, make([]byte, 16), 0)
		}
	}))
	r.sim.RunSequential(5 * sim.Millisecond)
	if len(replies) != 10 {
		t.Fatalf("got %d replies, want 10", len(replies))
	}
	// The server core serializes all work, so finishing 10 requests takes
	// at least 10x the per-request CPU occupancy (IRQ + rx stack + app op
	// + tx stack), regardless of pipeline interleaving.
	p := hostsim.QemuParams()
	perReq := p.IRQOverhead + p.RxStackCost + serverOp + p.TxStackCost
	if last := replies[len(replies)-1]; last < 10*perReq {
		t.Fatalf("last reply at %v, want >= %v (server CPU-bound)", last, 10*perReq)
	}
	if r.h2.CPUBusy() < 10*perReq {
		t.Fatalf("server busy %v, want >= %v", r.h2.CPUBusy(), 10*perReq)
	}
	if r.h2.CPUBusy() == 0 {
		t.Fatal("server CPU accounted no busy time")
	}
}

func TestSequentialMatchesCoupled(t *testing.T) {
	trace := func(mode string) []string {
		r := buildRig(hostsim.QemuParams())
		var events []string
		r.h2.BindUDP(7, func(src proto.IP, sport uint16, payload []byte, _ int) {
			events = append(events, fmt.Sprintf("srv@%v", r.h2.Now()))
			r.h2.SendUDP(src, 7, sport, payload, 0)
		})
		r.h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) {
			events = append(events, fmt.Sprintf("cli@%v", r.h1.Now()))
		})
		r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
			var tick func()
			i := 0
			tick = func() {
				if i >= 20 {
					return
				}
				i++
				h.SendUDP(proto.HostIP(2), 8000, 7, make([]byte, 16), 0)
				h.After(30*sim.Microsecond, tick)
			}
			tick()
		}))
		if mode == "seq" {
			r.sim.RunSequential(3 * sim.Millisecond)
		} else {
			if err := r.sim.RunCoupled(3 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return events
	}
	a := trace("seq")
	b := trace("coupled")
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("modes diverged:\nseq:     %v\ncoupled: %v", a, b)
	}
	if len(a) != 40 {
		t.Fatalf("expected 40 events, got %d", len(a))
	}
}

func TestTCPBetweenDetailedHosts(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	done := false
	snd := r.h1.DialTCP(proto.HostIP(2), 40000, proto.PortBulk, tcpstack.CCReno,
		500_000, func() { done = true })
	rcv := r.h2.ListenTCP(proto.HostIP(1), proto.PortBulk, 40000, tcpstack.CCReno)
	r.h1.AddApp(hostsim.AppFunc(func(*hostsim.Host) { snd.StartFlow() }))
	r.sim.RunSequential(200 * sim.Millisecond)
	if !done {
		t.Fatalf("transfer incomplete: delivered %d rtx %d",
			rcv.Delivered(), snd.Retransmits)
	}
	if rcv.Delivered() != 500_000 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
}

func TestPHCReadRoundTrip(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	var got sim.Time = -1
	var at sim.Time
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		h.ReadPHC(func(hw sim.Time) {
			got = hw
			at = h.Now()
		})
	}))
	r.sim.RunSequential(1 * sim.Millisecond)
	if got < 0 {
		t.Fatal("no PHC value")
	}
	// Round trip: 2x PCI latency + NIC read latency.
	want := 2*pci.DefaultLatency + 300*sim.Nanosecond
	if at != want {
		t.Fatalf("PHC read completed at %v, want %v", at, want)
	}
	// PHC (zero drift default) read taken at NIC when request arrived +
	// read latency.
	if got != pci.DefaultLatency+300*sim.Nanosecond {
		t.Fatalf("PHC value %v", got)
	}
}

func TestTxHardwareTimestamp(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	var hwTx sim.Time = -1
	r.h2.BindUDP(proto.PortPTPEvent, func(proto.IP, uint16, []byte, int) {})
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		h.SendUDPTimestamped(proto.HostIP(2), proto.PortPTPEvent, proto.PortPTPEvent,
			proto.AppendPTP(nil, proto.PTPMsg{Type: proto.PTPSync, Seq: 1}),
			func(hw sim.Time) { hwTx = hw })
	}))
	r.sim.RunSequential(1 * sim.Millisecond)
	if hwTx < 0 {
		t.Fatal("no TX timestamp delivered")
	}
	// Wire departure: TxStack(2us) + PCI(500ns) + TxDMA(900ns) + serialize.
	if hwTx < 3*sim.Microsecond || hwTx > 5*sim.Microsecond {
		t.Fatalf("hw TX timestamp %v outside expected window", hwTx)
	}
}

func TestGem5NoiseChangesTiming(t *testing.T) {
	rtt := func(params hostsim.Params) sim.Time {
		r := buildRig(params)
		var rtt sim.Time = -1
		var sentAt sim.Time
		r.h2.BindUDP(7, func(src proto.IP, sport uint16, p []byte, _ int) {
			r.h2.SendUDP(src, 7, sport, p, 0)
		})
		r.h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) { rtt = r.h1.Now() - sentAt })
		r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
			sentAt = h.Now()
			h.SendUDP(proto.HostIP(2), 8000, 7, nil, 0)
		}))
		r.sim.RunSequential(1 * sim.Millisecond)
		return rtt
	}
	q := rtt(hostsim.QemuParams())
	g := rtt(hostsim.Gem5Params())
	if g <= q {
		t.Fatalf("gem5 RTT %v should exceed qemu RTT %v (higher stack costs)", g, q)
	}
}

// TestHorizonWithCPUBacklogLeaksNothing stops a run while both hosts' cores
// are still booked ahead: h1 queues 1000 datagrams at time zero and h2's
// receive path is slower than h1's transmit path. The completions parked
// behind the cores at the horizon must all be swept back to their pools.
func TestHorizonWithCPUBacklogLeaksNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params hostsim.Params
	}{
		{"qemu-1core", hostsim.QemuParams()},
		{"gem5-1core-noise", hostsim.Gem5Params()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildRig(tc.params)
			var got uint64
			r.h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { got++ })
			r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
				for i := 0; i < 1000; i++ {
					h.SendUDP(proto.HostIP(2), 9, 9, make([]byte, 64), 0)
				}
			}))
			r.sim.RunSequential(sim.Millisecond)
			if r.h1.TxPackets != 1000 || r.n1.TxFrames == 0 || r.n1.TxFrames >= 1000 {
				t.Fatalf("h1 sent %d, NIC transmitted %d: want a transmit backlog at the horizon",
					r.h1.TxPackets, r.n1.TxFrames)
			}
			if got == 0 || got >= r.h2.RxPackets {
				t.Fatalf("h2 received %d, delivered %d: want a receive backlog at the horizon",
					r.h2.RxPackets, got)
			}
			for _, c := range r.sim.Components() {
				if fp, ok := c.(core.FramePooler); ok && fp.FrameStats().Live != 0 {
					t.Errorf("%s: %d frames live after the run", c.Name(), fp.FrameStats().Live)
				}
			}
			if n := r.sim.LiveFrames(); n != 0 {
				t.Fatalf("LiveFrames() = %d after the run", n)
			}
		})
	}
}

// TestRerunRebuildsLanes runs one simulation twice: the second run attaches
// every host to a fresh scheduler, and stack completions must be queued
// there, not on the first run's.
func TestRerunRebuildsLanes(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	r.h2.BindUDP(7, func(src proto.IP, sport uint16, payload []byte, _ int) {
		r.h2.SendUDP(src, 7, sport, payload, 0)
	})
	echoes := 0
	r.h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) { echoes++ })
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		h.SendUDP(proto.HostIP(2), 8000, 7, make([]byte, 32), 0)
	}))
	for run := 1; run <= 2; run++ {
		s := r.sim.RunSequential(sim.Millisecond)
		if echoes != run || s.Pending() != 0 || r.sim.LiveFrames() != 0 {
			t.Fatalf("run %d: %d echoes in total, %d pending, %d frames live",
				run, echoes, s.Pending(), r.sim.LiveFrames())
		}
	}
}

func TestHostCostAccounting(t *testing.T) {
	r := buildRig(hostsim.QemuParams())
	r.h2.BindUDP(7, func(src proto.IP, sport uint16, p []byte, _ int) {})
	r.h1.AddApp(hostsim.AppFunc(func(h *hostsim.Host) {
		h.SendUDP(proto.HostIP(2), 8000, 7, nil, 0)
	}))
	r.sim.RunSequential(1 * sim.Millisecond)
	if r.h1.Cost().BusyNanos() == 0 || r.h2.Cost().BusyNanos() == 0 {
		t.Fatal("host simulators accounted no cost")
	}
	if r.n1.Cost().BusyNanos() == 0 {
		t.Fatal("NIC simulator accounted no cost")
	}
	if r.h1.TimeTaxNsPerVirtualUs() <= r.n1.TimeTaxNsPerVirtualUs() {
		t.Fatal("host sim must have a higher time tax than the NIC model")
	}
}
