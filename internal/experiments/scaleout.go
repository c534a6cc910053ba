package experiments

import (
	"context"
	"fmt"
	"net"
	"strings"

	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scale-out harness: the same two-pair topology is run twice — monolithic
// coupled, and distributed as two simulations joined by proxy.Forward over
// a loopback TCP connection — and the harness checks the paper's scale-out
// invariant: the simulation results are identical, because the transport
// costs only wall-clock time, never simulated time. It also prints the
// transport counters and the profiler's transport lines.

// ScaleOutResult holds both runs' outputs and transport telemetry.
type ScaleOutResult struct {
	End       sim.Time
	MonoRx    [2]uint64
	DistRx    [2]uint64
	Identical bool
	Counters  []proxy.Counters // server, client
	ProfLog   string           // splitsim-prof transport lines
	DistMs    float64
}

// String renders the harness output.
func (r *ScaleOutResult) String() string {
	var b strings.Builder
	b.WriteString("Scale-out transport: monolithic vs distributed\n")
	t := stats.NewTable("run", "rx(pair1)", "rx(pair2)", "wall-ms")
	t.Row("monolithic", r.MonoRx[0], r.MonoRx[1], "-")
	t.Row("distributed", r.DistRx[0], r.DistRx[1], fmt.Sprintf("%.1f", r.DistMs))
	b.WriteString(t.String())
	if r.Identical {
		b.WriteString("results identical across both runs\n")
	} else {
		b.WriteString("RESULTS DIVERGED — scale-out invariant violated\n")
	}
	b.WriteString("transport counters:\n")
	b.WriteString(proxy.CountersTable([]string{"server", "client"}, r.Counters).String())
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

// runScaleOutDist splits the topology into two simulations — standing in
// for two processes — each forwarding its halves of both boundary channels
// over one loopback TCP connection.
func runScaleOutDist(end sim.Time) ([2]uint64, []proxy.Counters, error) {
	t := buildScaleOutTopo()

	sA := orch.New() // n1, n3 — side A of both boundaries
	sA.Add(t.n[0])
	sA.Reserve(1)
	sA.Add(t.n[2])
	sA.Reserve(1)
	remA := []*link.Remote{
		sA.ConnectRemote("x12", t.lat, t.side(0), true),
		sA.ConnectRemote("x34", t.lat, t.side(2), true),
	}

	sB := orch.New() // n2, n4 — side B
	sB.Reserve(1)
	sB.Add(t.n[1])
	sB.Reserve(1)
	sB.Add(t.n[3])
	remB := []*link.Remote{
		sB.ConnectRemote("x12", t.lat, t.side(1), false),
		sB.ConnectRemote("x34", t.lat, t.side(3), false),
	}

	srv, cli, err := loopbackConn()
	if err != nil {
		return [2]uint64{}, nil, err
	}
	ctrs := make([]proxy.Counters, 2)
	errs := make(chan error, 4)
	forward := func(i int, conn net.Conn, rems []*link.Remote) {
		var err error
		ctrs[i], err = proxy.Forward(context.Background(), conn, rems)
		errs <- err
	}
	go forward(0, srv, remA)
	go forward(1, cli, remB)
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
	return t.rx(), ctrs, nil
}

// loopbackConn returns both ends of one TCP connection on 127.0.0.1: the
// accepted end and the dialed end.
func loopbackConn() (srv, cli net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	if cli, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, nil, err
	}
	if srv, err = ln.Accept(); err != nil {
		cli.Close()
		return nil, nil, err
	}
	return srv, cli, nil
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
	if r.DistRx, r.Counters, err = runScaleOutDist(end); err != nil {
		return nil, fmt.Errorf("distributed run: %w", err)
	}
	r.DistMs = sw.ms()
	r.Identical = r.MonoRx == r.DistRx

	// Attach the transport counters to a profiler log, the way a real
	// distributed run would ship them home.
	col := profiler.NewCollector()
	col.AddTransport(profiler.TransportSample{Name: "server", Counters: r.Counters[0]})
	col.AddTransport(profiler.TransportSample{Name: "client", Counters: r.Counters[1]})
	var b strings.Builder
	if _, err := col.WriteTo(&b); err != nil {
		return nil, err
	}
	r.ProfLog = b.String()
	return r, nil
}
