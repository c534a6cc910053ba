package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/proto"
	"repro/internal/sim"
)

// runSeq drives one or more networks on a shared scheduler until end,
// mirroring what the orchestrator's sequential mode does.
func runSeq(end sim.Time, nets ...*Network) *sim.Scheduler {
	s := sim.NewScheduler(0)
	for i, n := range nets {
		n.Attach(core.Env{Sched: s, Src: int32(10 + i)})
	}
	for _, n := range nets {
		n.Start(end)
	}
	for {
		at, ok := s.PeekTime()
		if !ok || at >= end {
			break
		}
		s.Step()
	}
	return s
}

// buildStar builds h1 -- sw -- h2 with 10G/1us links.
func buildStar() (*Network, *Host, *Host, *Switch) {
	n := New("net", 1)
	sw := n.AddSwitch("sw")
	h1 := n.AddHost("h1", proto.HostIP(1))
	h2 := n.AddHost("h2", proto.HostIP(2))
	n.ConnectHostSwitch(h1, sw, 10*sim.Gbps, 1*sim.Microsecond)
	n.ConnectHostSwitch(h2, sw, 10*sim.Gbps, 1*sim.Microsecond)
	n.ComputeRoutes()
	return n, h1, h2, sw
}

func TestUDPExactLatency(t *testing.T) {
	n, h1, h2, _ := buildStar()
	var arrival sim.Time = -1
	var gotPayload []byte
	h2.BindUDP(9999, func(src proto.IP, sport uint16, payload []byte, virtual int) {
		arrival = h2.Now()
		gotPayload = payload
	})
	payload := make([]byte, 32)
	h1.SetApp(AppFunc(func(h *Host) {
		h.SendUDP(h2.IP(), 1111, 9999, payload, 0)
	}))
	runSeq(1*sim.Millisecond, n)

	// Wire size 74B; tx@10G = 59.2ns; path = tx + 1us + 500ns switch + tx + 1us.
	want := 59200*sim.Picosecond + 1*sim.Microsecond + 500*sim.Nanosecond +
		59200*sim.Picosecond + 1*sim.Microsecond
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
	if len(gotPayload) != 32 {
		t.Fatalf("payload length %d", len(gotPayload))
	}
}

func TestUDPVirtualPayloadAffectsTiming(t *testing.T) {
	n, h1, h2, _ := buildStar()
	var arrival sim.Time = -1
	h2.BindUDP(9, func(_ proto.IP, _ uint16, _ []byte, virtual int) {
		arrival = h2.Now()
		if virtual != 1400 {
			t.Errorf("virtual = %d, want 1400", virtual)
		}
	})
	h1.SetApp(AppFunc(func(h *Host) { h.SendUDP(h2.IP(), 1, 9, nil, 1400) }))
	runSeq(1*sim.Millisecond, n)
	// Wire size 14+20+8+1400 = 1442B -> tx = 1153.6ns each hop.
	want := 2*1153600*sim.Picosecond + 2*sim.Microsecond + 500*sim.Nanosecond
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestSwitchDropsUnrouted(t *testing.T) {
	n, h1, _, sw := buildStar()
	h1.SetApp(AppFunc(func(h *Host) {
		h.SendUDP(proto.HostIP(77), 1, 2, nil, 0) // no such host
	}))
	runSeq(1*sim.Millisecond, n)
	if sw.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", sw.NoRoute)
	}
}

func TestQueueDropTail(t *testing.T) {
	n, h1, h2, _ := buildStar()
	// Cap h1's uplink queue to ~3 packets of 1442B.
	h1.Iface().QueueCapBytes = 4500
	got := 0
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) { got++ })
	h1.SetApp(AppFunc(func(h *Host) {
		for i := 0; i < 10; i++ {
			h.SendUDP(h2.IP(), 1, 9, nil, 1400) // burst at t=0
		}
	}))
	runSeq(1*sim.Millisecond, n)
	if h1.Iface().Drops == 0 {
		t.Fatal("expected drops on capped queue")
	}
	if got+int(h1.Iface().Drops) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", got, h1.Iface().Drops)
	}
}

func TestECNMarking(t *testing.T) {
	n, h1, h2, _ := buildStar()
	h1.Iface().MarkThresholdBytes = 2000
	var ce, total int
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	// Count CE directly at the receiving host by a dataplane-free hack:
	// wrap receive via switch dataplane on the path back? Instead send
	// ECT-marked UDP and inspect frames at h2 via a custom handler on the
	// raw frame path: we use TCP's machinery elsewhere; here check Marks.
	h1.SetApp(AppFunc(func(h *Host) {
		for i := 0; i < 8; i++ {
			f := &proto.Frame{
				Eth: proto.Ethernet{Dst: proto.MACFromID(uint32(h2.IP())), Src: h.mac},
				IP: proto.IPv4{Src: h.IP(), Dst: h2.IP(),
					Proto: proto.IPProtoUDP}.WithECN(proto.ECNECT0),
				UDP:            proto.UDP{SrcPort: 1, DstPort: 9},
				VirtualPayload: 1400,
			}
			f.Seal()
			h.transmit(f)
		}
	}))
	runSeq(1*sim.Millisecond, n)
	_ = ce
	_ = total
	if h1.Iface().Marks == 0 {
		t.Fatal("expected CE marks above threshold")
	}
	if h1.Iface().Marks >= h1.Iface().TxPackets {
		t.Fatal("first packets (empty queue) must not be marked")
	}
}

func TestTCPBulkThroughput(t *testing.T) {
	// Dumbbell with a 1 Gbps bottleneck; a single Reno flow should achieve
	// close to line rate with an unbounded queue (no losses).
	topo, m := Dumbbell(DumbbellSpec{
		HostsPerSide: 1, EdgeRate: 10 * sim.Gbps, BottleneckRate: 1 * sim.Gbps,
		EdgeDelay: 5 * sim.Microsecond, BottleneckDelay: 20 * sim.Microsecond,
	})
	b := topo.Build("dumbbell", 1, nil, nil)
	n := b.Parts[0]
	src, dst := b.Hosts[m.Left[0]], b.Hosts[m.Right[0]]
	snd, rcv := NewFlow(src, dst, 40000, proto.PortBulk, CCReno, 0, nil)
	src.SetApp(AppFunc(func(*Host) { snd.StartFlow() }))
	const dur = 50 * sim.Millisecond
	runSeq(dur, n)

	goodput := float64(rcv.Delivered()) * 8 / dur.Seconds()
	wire := float64(1*sim.Gbps) * float64(MSS) / float64(MSS+54)
	if goodput < 0.85*wire || goodput > 1.01*wire {
		t.Fatalf("goodput = %.0f bps, want ~%.0f", goodput, wire)
	}
	if snd.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", snd.Retransmits)
	}
}

func TestTCPBoundedTransferCompletes(t *testing.T) {
	n, h1, h2, _ := buildStar()
	done := false
	snd, rcv := NewFlow(h1, h2, 40000, proto.PortBulk, CCReno, 1_000_000, func() { done = true })
	h1.SetApp(AppFunc(func(*Host) { snd.StartFlow() }))
	runSeq(100*sim.Millisecond, n)
	if !done {
		t.Fatal("bounded transfer did not complete")
	}
	if rcv.Delivered() != 1_000_000 {
		t.Fatalf("delivered %d, want 1000000", rcv.Delivered())
	}
}

func TestTCPRecoversFromDrops(t *testing.T) {
	topo, m := Dumbbell(DumbbellSpec{
		HostsPerSide: 1, EdgeRate: 10 * sim.Gbps, BottleneckRate: 1 * sim.Gbps,
		EdgeDelay: 5 * sim.Microsecond, BottleneckDelay: 20 * sim.Microsecond,
	})
	b := topo.Build("dumbbell", 1, nil, nil)
	n := b.Parts[0]
	// Small bottleneck queue forces drops.
	left := b.Switches[m.SwLeft]
	for _, f := range left.Ifaces() {
		if f.Peer() != nil {
			if _, isSw := f.Peer().owner.(*Switch); isSw {
				f.QueueCapBytes = 30_000
			}
		}
	}
	src, dst := b.Hosts[m.Left[0]], b.Hosts[m.Right[0]]
	snd, rcv := NewFlow(src, dst, 40000, proto.PortBulk, CCReno, 3_000_000, nil)
	src.SetApp(AppFunc(func(*Host) { snd.StartFlow() }))
	runSeq(200*sim.Millisecond, n)
	if snd.Retransmits == 0 {
		t.Fatal("expected drops and retransmits with a tiny queue")
	}
	if rcv.Delivered() != 3_000_000 {
		t.Fatalf("delivered %d, want 3000000 despite losses", rcv.Delivered())
	}
}

func TestDCTCPBoundsQueue(t *testing.T) {
	topo, m := Dumbbell(DumbbellSpec{
		HostsPerSide: 2, EdgeRate: 10 * sim.Gbps, BottleneckRate: 1 * sim.Gbps,
		EdgeDelay: 5 * sim.Microsecond, BottleneckDelay: 20 * sim.Microsecond,
	})
	b := topo.Build("dumbbell", 1, nil, nil)
	n := b.Parts[0]
	// ECN threshold K = 20 packets on the bottleneck, generous cap.
	var bottleneck *Iface
	for _, f := range b.Switches[m.SwLeft].Ifaces() {
		if f.Peer() != nil {
			if _, isSw := f.Peer().owner.(*Switch); isSw {
				bottleneck = f
			}
		}
	}
	bottleneck.MarkThresholdBytes = 20 * (MSS + 54)
	bottleneck.QueueCapBytes = 1_000_000

	var snds []*TCPConn
	var rcvs []*TCPConn
	for i := range m.Left {
		snd, rcv := NewFlow(b.Hosts[m.Left[i]], b.Hosts[m.Right[i]],
			uint16(40000+i), proto.PortBulk, CCDCTCP, 0, nil)
		b.Hosts[m.Left[i]].SetApp(AppFunc(func(*Host) { snd.StartFlow() }))
		snds = append(snds, snd)
		rcvs = append(rcvs, rcv)
	}

	// Sample the bottleneck queue during steady state.
	var maxQ int
	env := core.Env{}
	_ = env
	sampler := AppFunc(func(h *Host) {
		var tick func()
		tick = func() {
			if h.Now() > 20*sim.Millisecond {
				if q := bottleneck.backlogBytes(h.Now()); q > maxQ {
					maxQ = q
				}
			}
			h.After(100*sim.Microsecond, tick)
		}
		tick()
	})
	b.Hosts[m.Right[0]].SetApp(sampler)

	const dur = 80 * sim.Millisecond
	runSeq(dur, n)

	total := int64(0)
	for _, r := range rcvs {
		total += r.Delivered()
	}
	goodput := float64(total) * 8 / dur.Seconds()
	if goodput < 0.80*1e9 {
		t.Fatalf("DCTCP goodput %.0f bps, want >80%% of 1G", goodput)
	}
	if bottleneck.Marks == 0 {
		t.Fatal("no ECN marks at bottleneck")
	}
	if snds[0].Alpha() <= 0 || snds[0].Alpha() > 1 {
		t.Fatalf("alpha = %v out of range", snds[0].Alpha())
	}
	// DCTCP should keep the steady-state queue within a few K.
	if maxQ > 6*20*(MSS+54) {
		t.Fatalf("queue grew to %d bytes, DCTCP should bound it near K", maxQ)
	}
	if snds[0].Retransmits != 0 {
		t.Fatalf("DCTCP with ECN should avoid drops, got %d rtx", snds[0].Retransmits)
	}
}

func TestFatTreeAllPairsRouted(t *testing.T) {
	topo, m := FatTree(4, 10*sim.Gbps, 40*sim.Gbps, 1*sim.Microsecond)
	b := topo.Build("ft", 1, nil, nil)
	if len(b.Hosts) != 16 {
		t.Fatalf("k=4 fat tree should have 16 hosts, got %d", len(b.Hosts))
	}
	if len(topo.Switches) != 4+8+8 {
		t.Fatalf("k=4 fat tree should have 20 switches, got %d", len(topo.Switches))
	}
	// Host 0 pings every other host; all must arrive.
	got := make(map[proto.IP]bool)
	for _, h := range b.Hosts {
		h := h
		h.BindUDP(9, func(src proto.IP, _ uint16, _ []byte, _ int) { got[h.IP()] = true })
	}
	src := b.Hosts[m.HostsByPod[0][0]]
	src.SetApp(AppFunc(func(h *Host) {
		for _, other := range b.Hosts {
			if other != h {
				h.SendUDP(other.IP(), 1, 9, nil, 0)
			}
		}
	}))
	runSeq(10*sim.Millisecond, b.Parts[0])
	if len(got) != 15 {
		t.Fatalf("reached %d/15 hosts", len(got))
	}
}

func TestThreeTierScale(t *testing.T) {
	topo, m := ThreeTier(DefaultThreeTier)
	if n := m.Spec.Aggs * m.Spec.RacksPerAgg * m.Spec.HostsPerRack; n != 1200 {
		t.Fatalf("host slots = %d, want 1200", n)
	}
	if len(topo.Switches) != 1+4+24 {
		t.Fatalf("switches = %d, want 29", len(topo.Switches))
	}
	b := topo.Build("dc", 1, nil, nil)
	// Cross-pod ping: first host to last host.
	last := b.Hosts[len(b.Hosts)-1]
	ok := false
	last.BindUDP(9, func(proto.IP, uint16, []byte, int) { ok = true })
	b.Hosts[0].SetApp(AppFunc(func(h *Host) { h.SendUDP(last.IP(), 1, 9, nil, 0) }))
	runSeq(5*sim.Millisecond, b.Parts[0])
	if !ok {
		t.Fatal("cross-datacenter ping failed")
	}
}

// deterministic periodic sender used for partition-equivalence tests.
type periodicApp struct {
	dst      proto.IP
	interval sim.Time
	count    int
}

func (p *periodicApp) Start(h *Host) {
	sent := 0
	var tick func()
	tick = func() {
		if sent >= p.count {
			return
		}
		h.SendUDP(p.dst, 1, 9, nil, 200)
		sent++
		h.After(p.interval, tick)
	}
	tick()
}

// TestPartitionedMatchesSingle is the decomposition-correctness property:
// the same topology split into partitions (wired through latency-faithful
// ports) delivers exactly the same packets as the single-network build.
func TestPartitionedMatchesSingle(t *testing.T) {
	build := func(assign []int) (nets []*Network, rx func() map[string]uint64) {
		topo, m := ThreeTier(ThreeTierSpec{
			Aggs: 2, RacksPerAgg: 2, HostsPerRack: 3,
			CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
			HostRate: 10 * sim.Gbps, LinkDelay: 1 * sim.Microsecond,
		})
		_ = m
		b := topo.Build("dc", 7, assign, nil)
		// Every host sends to the "opposite" host periodically.
		nh := len(b.Hosts)
		for i, h := range b.Hosts {
			peer := b.Hosts[(i+nh/2)%nh]
			h.SetApp(&periodicApp{dst: peer.IP(), interval: 50 * sim.Microsecond, count: 20})
			h.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
		}
		// Wire boundaries with direct ports on a shared scheduler; the
		// caller runs all parts sequentially.
		return b.Parts, func() map[string]uint64 {
			out := make(map[string]uint64)
			for _, h := range b.Hosts {
				out[h.name] = h.RxPackets
			}
			return out
		}
	}

	// Single network.
	nets, rxSingle := build(nil)
	runSeq(5*sim.Millisecond, nets...)

	// Two partitions: agg0 subtree in part 0 (with core), agg1 subtree in 1.
	assign := []int{0, 0, 1, 0, 0, 1, 1} // core,agg0,agg1,tor00,tor01,tor10,tor11
	nets2, rxPart := build(assign)
	if len(nets2) != 2 {
		t.Fatalf("expected 2 partitions, got %d", len(nets2))
	}
	// Wire boundaries through DirectPorts on the shared scheduler.
	s := sim.NewScheduler(0)
	for i, n := range nets2 {
		n.Attach(core.Env{Sched: s, Src: int32(10 + i)})
	}
	var topoB *Built
	_ = topoB
	// Boundaries are reachable via the networks' ext ports.
	bds := boundariesOf(nets2)
	if len(bds) == 0 {
		t.Fatal("no boundaries found")
	}
	srcID := int32(100)
	for _, bd := range bds {
		la := bd.a.iface.rate
		_ = la
		pa := link.NewDirectPort(s, 1*sim.Microsecond, srcID, bd.b)
		pb := link.NewDirectPort(s, 1*sim.Microsecond, srcID+1, bd.a)
		bd.a.Bind(pa)
		bd.b.Bind(pb)
		srcID += 2
	}
	for _, n := range nets2 {
		n.Start(5 * sim.Millisecond)
	}
	for {
		at, ok := s.PeekTime()
		if !ok || at >= 5*sim.Millisecond {
			break
		}
		s.Step()
	}

	a, b := rxSingle(), rxPart()
	for name, cnt := range a {
		if b[name] != cnt {
			t.Fatalf("host %s: partitioned rx %d != single rx %d", name, b[name], cnt)
		}
	}
}

type bdPair struct{ a, b *ExtPort }

// boundariesOf pairs up ext ports across partitions by link name.
func boundariesOf(nets []*Network) []bdPair {
	byName := make(map[string]*ExtPort)
	var out []bdPair
	for _, n := range nets {
		for _, p := range n.exts {
			base := p.name[:len(p.name)-2]
			if other, ok := byName[base]; ok {
				out = append(out, bdPair{a: other, b: p})
			} else {
				byName[base] = p
			}
		}
	}
	return out
}

func TestTransparentClockAddsResidence(t *testing.T) {
	// Asymmetric star: h1 at 10G, h2 at 1G, so the queue builds at the
	// switch egress toward h2 where the transparent clock measures it.
	n := New("net", 1)
	sw := n.AddSwitch("sw")
	h1 := n.AddHost("h1", proto.HostIP(1))
	h2 := n.AddHost("h2", proto.HostIP(2))
	n.ConnectHostSwitch(h1, sw, 10*sim.Gbps, 1*sim.Microsecond)
	n.ConnectHostSwitch(h2, sw, 1*sim.Gbps, 1*sim.Microsecond)
	n.ComputeRoutes()
	sw.TransparentClock = true
	var got proto.PTPMsg
	h2.BindUDP(proto.PortPTPEvent, func(_ proto.IP, _ uint16, payload []byte, _ int) {
		m, err := proto.ParsePTP(payload)
		if err != nil {
			t.Error(err)
		}
		got = m
	})
	h1.SetApp(AppFunc(func(h *Host) {
		// Congest the switch->h2 port first so the PTP packet queues.
		for i := 0; i < 20; i++ {
			h.SendUDP(h2.IP(), 1, 9, nil, 1400)
		}
		m := proto.PTPMsg{Type: PTPSyncType(), Seq: 1, Origin: h.Now()}
		h.SendUDP(h2.IP(), proto.PortPTPEvent, proto.PortPTPEvent, proto.AppendPTP(nil, m), 0)
	}))
	runSeq(10*sim.Millisecond, n)
	if got.Type != proto.PTPSync {
		t.Fatal("PTP sync not delivered")
	}
	// Residence must cover most of the ~20 queued 1442B packets at 10G
	// (~23 us) plus the switch pipeline latency.
	if got.Correction < 10*sim.Microsecond {
		t.Fatalf("correction = %v, want >= 10us of queueing residence", got.Correction)
	}
}

func PTPSyncType() proto.PTPType { return proto.PTPSync }

// wireRecorder is a port that keeps a copy of every encoded frame sent on
// it, taken at the send.
type wireRecorder struct{ frames [][]byte }

func (r *wireRecorder) Send(m core.Message, _ sim.Time) {
	w := m.(*proto.WireFrame)
	r.frames = append(r.frames, append([]byte(nil), w.B...))
	proto.PutWireFrame(w)
}

// TestTransparentClockResidenceBeforeHandoff: an external port sends a
// frame when it is enqueued, so a transparent clock must write the
// residence before that. The PTP event leaving toward an external peer
// carries the same correction as the one an internal host receives across
// the same queue.
func TestTransparentClockResidenceBeforeHandoff(t *testing.T) {
	build := func(ext bool) (sim.Time, *Network) {
		n := New("net", 1)
		sw := n.AddSwitch("sw")
		h1 := n.AddHost("h1", proto.HostIP(1))
		n.ConnectHostSwitch(h1, sw, 10*sim.Gbps, sim.Microsecond)
		var rec wireRecorder
		corr := sim.Time(-1)
		if ext {
			n.AddExternal(sw, "x", sim.Gbps, proto.HostIP(2)).Bind(&rec)
		} else {
			h2 := n.AddHost("h2", proto.HostIP(2))
			n.ConnectHostSwitch(h2, sw, sim.Gbps, sim.Microsecond)
			h2.BindUDP(proto.PortPTPEvent, func(_ proto.IP, _ uint16, payload []byte, _ int) {
				if m, err := proto.ParsePTP(payload); err == nil {
					corr = m.Correction
				}
			})
		}
		n.ComputeRoutes()
		sw.TransparentClock = true
		h1.SetApp(AppFunc(func(h *Host) {
			for i := 0; i < 20; i++ {
				h.SendUDP(proto.HostIP(2), 1, 9, nil, 1400)
			}
			m := proto.PTPMsg{Type: proto.PTPSync, Seq: 1, Origin: h.Now()}
			h.SendUDP(proto.HostIP(2), proto.PortPTPEvent, proto.PortPTPEvent, proto.AppendPTP(nil, m), 0)
		}))
		runSeq(10*sim.Millisecond, n)
		for _, b := range rec.frames {
			f := &proto.Frame{}
			if err := proto.ParseFrameInto(f, b); err != nil {
				t.Fatal(err)
			}
			if f.UDP.DstPort == proto.PortPTPEvent {
				m, err := proto.ParsePTP(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				corr = m.Correction
			}
		}
		return corr, n
	}
	want, _ := build(false)
	got, n := build(true)
	if want < 10*sim.Microsecond {
		t.Fatalf("internal correction = %v, want >= 10us of queueing residence", want)
	}
	if got != want {
		t.Fatalf("correction sent on the external port = %v, internal host received %v", got, want)
	}
	if st := n.FrameStats(); st.Live != 0 {
		t.Fatalf("%d frames live after the run", st.Live)
	}
}

// consumeDataplane swallows KV GETs and answers from the switch.
type consumeDataplane struct{ hits int }

func (d *consumeDataplane) Process(sw *Switch, in *Iface, f *proto.Frame) bool {
	if f.IP.Proto != proto.IPProtoUDP || f.UDP.DstPort != proto.PortKV {
		return true
	}
	m, err := proto.ParseKV(f.Payload)
	if err != nil || m.Op != proto.KVGet {
		return true
	}
	d.hits++
	reply := &proto.Frame{
		Eth: proto.Ethernet{Dst: f.Eth.Src, Src: f.Eth.Dst},
		IP:  proto.IPv4{Src: f.IP.Dst, Dst: f.IP.Src, Proto: proto.IPProtoUDP},
		UDP: proto.UDP{SrcPort: proto.PortKV, DstPort: f.UDP.SrcPort},
		Payload: proto.AppendKV(nil, proto.KVMsg{
			Op: proto.KVGetReply, Key: m.Key, Client: m.Client, Seq: m.Seq,
			Flags: proto.KVFlagSwitchHit,
		}),
	}
	reply.Seal()
	sw.Inject(reply)
	return false
}

func TestDataplaneConsumeAndInject(t *testing.T) {
	n, h1, h2, sw := buildStar()
	dp := &consumeDataplane{}
	sw.Dataplane = dp
	var reply proto.KVMsg
	h1.BindUDP(5555, func(_ proto.IP, _ uint16, payload []byte, _ int) {
		reply, _ = proto.ParseKV(payload)
	})
	serverGot := 0
	h2.BindUDP(proto.PortKV, func(proto.IP, uint16, []byte, int) { serverGot++ })
	h1.SetApp(AppFunc(func(h *Host) {
		h.SendUDP(h2.IP(), 5555, proto.PortKV,
			proto.AppendKV(nil, proto.KVMsg{Op: proto.KVGet, Key: 1, Client: 1, Seq: 1}), 0)
	}))
	runSeq(1*sim.Millisecond, n)
	if dp.hits != 1 || serverGot != 0 {
		t.Fatalf("dataplane hits=%d serverGot=%d; switch should consume", dp.hits, serverGot)
	}
	if reply.Op != proto.KVGetReply || reply.Flags&proto.KVFlagSwitchHit == 0 {
		t.Fatalf("bad switch reply: %+v", reply)
	}
}

func TestCostAccounting(t *testing.T) {
	n, h1, h2, _ := buildStar()
	h2.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	h1.SetApp(AppFunc(func(h *Host) { h.SendUDP(h2.IP(), 1, 9, nil, 0) }))
	runSeq(1*sim.Millisecond, n)
	want := uint64(CostPerHostPacketNs*2 + CostPerSwitchPacketNs)
	if n.Cost().BusyNanos() != want {
		t.Fatalf("cost = %d, want %d", n.Cost().BusyNanos(), want)
	}
}

// TestIfaceSize pins Iface at 152 bytes: interfaces are packed into their
// network's slab chunks, so every byte added here is paid on each of a
// large fabric's interfaces. An interface stores no name.
func TestIfaceSize(t *testing.T) {
	if got := unsafe.Sizeof(Iface{}); got != 152 {
		t.Errorf("Iface is %d bytes, want 152", got)
	}
}
