// Scale-out: two network partitions synchronized over a REAL TCP
// connection (localhost), the SimBricks-proxy mechanism SplitSim inherits
// for distributing simulations across machines. The conservative
// synchronization protocol rides the socket unchanged, so the distributed
// run produces exactly the same simulation as an in-process run.
//
// Each side's spliced channel is owned by a proxy.Supervisor — the
// production transport: reconnect with backoff, heartbeats, checksummed
// framing, and per-connection counters (printed at the end).
package main

import (
	"context"
	"fmt"
	"net"

	splitsim "repro"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/proxy"
	"repro/internal/sim"
)

const (
	linkLatency = 2 * splitsim.Microsecond
	end         = 5 * splitsim.Millisecond
)

// site builds one "machine's" share: a switch with one host, plus an
// external port toward the remote site.
func site(name string, localID, remoteID uint32) (*netsim.Network, *netsim.Host, *netsim.ExtPort) {
	n := splitsim.NewNetwork(name, 99)
	sw := n.AddSwitch("sw")
	h := n.AddHost("h", splitsim.HostIP(localID))
	n.ConnectHostSwitch(h, sw, 10*splitsim.Gbps, splitsim.Microsecond)
	x := n.AddExternal(sw, "wan", 10*splitsim.Gbps, splitsim.HostIP(remoteID))
	n.ComputeRoutes()
	return n, h, x
}

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	fmt.Printf("channel endpoint listening on %s\n", ln.Addr())

	n1, h1, x1 := site("site1", 1, 2)
	n2, h2, x2 := site("site2", 2, 1)

	// Each site runs as its own simulator process (here: goroutine), with
	// the channel spliced over TCP.
	epA, remA := link.NewHalf("wan", linkLatency)
	epB, remB := link.NewHalf("wan", linkLatency)
	r1 := link.NewRunner("site1", sim.NewScheduler(1))
	r2 := link.NewRunner("site2", sim.NewScheduler(2))
	r1.Attach(epA)
	r2.Attach(epB)
	epA.SetSink(0, 100, x1)
	epB.SetSink(0, 101, x2)
	x1.Bind(epA)
	x2.Bind(epB)

	supA := proxy.NewSupervisor(proxy.Config{Seed: 1})
	supA.AddChannel(0, remA, proxy.RawFrameCodec{})
	supB := proxy.NewSupervisor(proxy.Config{Seed: 2})
	supB.AddChannel(0, remB, proxy.RawFrameCodec{})
	proxyDone := make(chan error, 2)
	go func() { proxyDone <- supA.Serve(context.Background(), ln) }()
	go func() { proxyDone <- supB.Dial(context.Background(), ln.Addr().String()) }()

	// Workload: site1's host pings site2's host.
	var rtts int
	h2.BindUDP(7, func(src proto.IP, sport uint16, p []byte, _ int) {
		h2.SendUDP(src, 7, sport, p, 0)
	})
	h1.BindUDP(8000, func(proto.IP, uint16, []byte, int) { rtts++ })
	h1.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		var tick func()
		tick = func() {
			h.SendUDP(splitsim.HostIP(2), 8000, 7, []byte("ping"), 0)
			h.After(200*splitsim.Microsecond, tick)
		}
		tick()
	}))

	r1.AddComponent(n1, 10)
	r2.AddComponent(n2, 11)
	g := &link.Group{}
	g.Add(r1, r2)
	if err := g.Run(end); err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-proxyDone; err != nil {
			panic(err)
		}
	}
	fmt.Printf("distributed simulation of %v completed: %d cross-site echoes\n", end, rtts)
	fmt.Println("virtual time stayed exact: wall-clock TCP delay never leaks into the simulation")
	fmt.Print(proxy.CountersTable([]string{"site1", "site2"},
		[]proxy.Counters{supA.Counters(), supB.Counters()}).String())
}
