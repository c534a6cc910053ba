package experiments

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scale-out hardening harness: the same two-pair topology is run three
// ways — monolithic coupled, distributed over a supervised TCP transport,
// and distributed again with deterministic connection faults injected —
// and the harness checks the paper's scale-out invariant: the simulation
// results are identical in all three, because transport failures cost only
// wall-clock time, never simulated time. It also prints the transport
// counters and the profiler's transport lines, the observability side of
// the supervisor.

// ScaleOutResult holds the three runs' outputs and transport telemetry.
type ScaleOutResult struct {
	End        sim.Time
	MonoRx     [2]uint64
	CleanRx    [2]uint64
	FaultedRx  [2]uint64
	Identical  bool
	FaultyConn int
	Clean      []proxy.Counters // server, client
	Faulted    []proxy.Counters // server, client
	ProfLog    string           // splitsim-prof transport lines
	CleanMs    float64
	FaultedMs  float64
}

// String renders the harness output.
func (r *ScaleOutResult) String() string {
	var b strings.Builder
	b.WriteString("Scale-out transport hardening: monolithic vs distributed vs distributed+faults\n")
	t := stats.NewTable("run", "rx(pair1)", "rx(pair2)", "wall-ms")
	t.Row("monolithic", r.MonoRx[0], r.MonoRx[1], "-")
	t.Row("distributed", r.CleanRx[0], r.CleanRx[1], fmt.Sprintf("%.1f", r.CleanMs))
	t.Row("dist+faults", r.FaultedRx[0], r.FaultedRx[1], fmt.Sprintf("%.1f", r.FaultedMs))
	b.WriteString(t.String())
	if r.Identical {
		b.WriteString(fmt.Sprintf("results identical across all runs (with %d faulted connections)\n", r.FaultyConn))
	} else {
		b.WriteString("RESULTS DIVERGED — scale-out invariant violated\n")
	}
	b.WriteString("clean transport counters:\n")
	b.WriteString(proxy.CountersTable([]string{"server", "client"}, r.Clean).String())
	b.WriteString("faulted transport counters:\n")
	b.WriteString(proxy.CountersTable([]string{"server", "client"}, r.Faulted).String())
	b.WriteString("profiler transport lines:\n")
	b.WriteString(r.ProfLog)
	return b.String()
}

// scaleOutSite builds one partition's network: a switch, one host, and an
// external port toward its remote pair host.
func scaleOutSite(name string, localID, remoteID uint32) (*netsim.Network, *netsim.Host, *netsim.ExtPort) {
	n := netsim.New(name, 1)
	sw := n.AddSwitch("sw")
	h := n.AddHost("h", proto.HostIP(localID))
	n.ConnectHostSwitch(h, sw, 10*sim.Gbps, sim.Microsecond)
	x := n.AddExternal(sw, "x", 10*sim.Gbps, proto.HostIP(remoteID))
	n.ComputeRoutes()
	return n, h, x
}

// scaleOutTopo is the assembled two-pair topology.
type scaleOutTopo struct {
	n   [4]*netsim.Network
	h   [4]*netsim.Host
	x   [4]*netsim.ExtPort
	lat sim.Time
}

func buildScaleOutTopo() *scaleOutTopo {
	t := &scaleOutTopo{lat: 2 * sim.Microsecond}
	ids := [4][2]uint32{{1, 2}, {2, 1}, {3, 4}, {4, 3}}
	for i, p := range ids {
		t.n[i], t.h[i], t.x[i] = scaleOutSite(fmt.Sprintf("net%d", i+1), p[0], p[1])
	}
	sender := func(dst proto.IP, iv sim.Time) netsim.AppFunc {
		return func(h *netsim.Host) {
			var tick func()
			tick = func() {
				h.SendUDP(dst, 1, 9, nil, 400)
				h.After(iv, tick)
			}
			tick()
		}
	}
	t.h[0].SetApp(sender(t.h[1].IP(), 20*sim.Microsecond))
	t.h[2].SetApp(sender(t.h[3].IP(), 25*sim.Microsecond))
	drop := func(proto.IP, uint16, []byte, int) {}
	t.h[1].BindUDP(9, drop)
	t.h[3].BindUDP(9, drop)
	return t
}

func (t *scaleOutTopo) side(i int) orch.Side {
	return orch.Side{Comp: t.n[i], Bind: t.x[i].Bind, Sink: t.x[i]}
}

func (t *scaleOutTopo) rx() [2]uint64 {
	return [2]uint64{t.h[1].RxPackets, t.h[3].RxPackets}
}

// runScaleOutMono runs the topology as one coupled process.
func runScaleOutMono(end sim.Time) ([2]uint64, error) {
	t := buildScaleOutTopo()
	s := orch.New()
	for i := range t.n {
		s.Add(t.n[i])
	}
	s.Connect("x12", t.lat, t.side(0), t.side(1))
	s.Connect("x34", t.lat, t.side(2), t.side(3))
	if err := s.RunCoupled(end); err != nil {
		return [2]uint64{}, err
	}
	checkDrained(s)
	return t.rx(), nil
}

// runScaleOutDist splits the topology into two supervised processes, with
// optional client-side fault injection.
func runScaleOutDist(end sim.Time, seed uint64, chaos *proxy.Chaos) ([2]uint64, []proxy.Counters, error) {
	t := buildScaleOutTopo()

	sA := orch.New() // n1, n3 — side A of both boundaries
	sA.Add(t.n[0])
	sA.Reserve(1)
	sA.Add(t.n[2])
	sA.Reserve(1)
	remA12 := sA.ConnectRemote("x12", t.lat, t.side(0), true)
	remA34 := sA.ConnectRemote("x34", t.lat, t.side(2), true)

	sB := orch.New() // n2, n4 — side B
	sB.Reserve(1)
	sB.Add(t.n[1])
	sB.Reserve(1)
	sB.Add(t.n[3])
	remB12 := sB.ConnectRemote("x12", t.lat, t.side(1), false)
	remB34 := sB.ConnectRemote("x34", t.lat, t.side(3), false)

	cfg := proxy.Config{
		Heartbeat:   20 * time.Millisecond,
		BackoffMin:  time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Linger:      500 * time.Millisecond,
		MaxAttempts: 200,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return [2]uint64{}, nil, err
	}
	srvCfg := cfg
	srvCfg.Seed = seed
	supA := proxy.NewSupervisor(srvCfg)
	supA.AddChannel(0, remA12, proxy.RawFrameCodec{})
	supA.AddChannel(1, remA34, proxy.RawFrameCodec{})
	cliCfg := cfg
	cliCfg.Seed = seed + 1
	if chaos != nil {
		cliCfg.DialFunc = chaos.Dialer()
	}
	supB := proxy.NewSupervisor(cliCfg)
	supB.AddChannel(0, remB12, proxy.RawFrameCodec{})
	supB.AddChannel(1, remB34, proxy.RawFrameCodec{})

	errs := make(chan error, 4)
	go func() { errs <- supA.Serve(context.Background(), ln) }()
	go func() { errs <- supB.Dial(context.Background(), ln.Addr().String()) }()
	go func() { errs <- sA.RunCoupled(end) }()
	go func() { errs <- sB.RunCoupled(end) }()
	var first error
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return [2]uint64{}, nil, first
	}
	checkDrained(sA)
	checkDrained(sB)
	return t.rx(), []proxy.Counters{supA.Counters(), supB.Counters()}, nil
}

// ScaleOut runs the harness.
func ScaleOut(o Options) (*ScaleOutResult, error) {
	end := o.Dur(2*sim.Millisecond, 500*sim.Microsecond)
	r := &ScaleOutResult{End: end}

	var err error
	if r.MonoRx, err = runScaleOutMono(end); err != nil {
		return nil, fmt.Errorf("monolithic run: %w", err)
	}

	sw := newStopwatch()
	if r.CleanRx, r.Clean, err = runScaleOutDist(end, o.Seed, nil); err != nil {
		return nil, fmt.Errorf("distributed run: %w", err)
	}
	r.CleanMs = sw.ms()

	chaos := proxy.NewChaos(o.Seed, 3, 4000)
	sw = newStopwatch()
	if r.FaultedRx, r.Faulted, err = runScaleOutDist(end, o.Seed+2, chaos); err != nil {
		return nil, fmt.Errorf("faulted distributed run: %w", err)
	}
	r.FaultedMs = sw.ms()
	_, r.FaultyConn = chaos.Dealt()
	r.Identical = r.MonoRx == r.CleanRx && r.MonoRx == r.FaultedRx

	// Attach the transport counters to a profiler log, the way a real
	// distributed run would ship them home.
	col := profiler.NewCollector()
	col.AddTransport(profiler.TransportSample{Name: "clean/server", Counters: r.Clean[0]})
	col.AddTransport(profiler.TransportSample{Name: "clean/client", Counters: r.Clean[1]})
	col.AddTransport(profiler.TransportSample{Name: "faulted/server", Counters: r.Faulted[0]})
	col.AddTransport(profiler.TransportSample{Name: "faulted/client", Counters: r.Faulted[1]})
	var b strings.Builder
	if _, err := col.WriteTo(&b); err != nil {
		return nil, err
	}
	r.ProfLog = b.String()
	return r, nil
}
