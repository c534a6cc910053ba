package netcache_test

import (
	"testing"

	"repro/internal/apps/kv"
	"repro/internal/apps/netcache"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

func rig(t *testing.T, writeFrac float64) (*netcache.Dataplane, []*kv.Server, *kv.Client, func(sim.Time)) {
	t.Helper()
	n := netsim.New("net", 9)
	sw := n.AddSwitch("sw")
	dp := netcache.New(16, 128)
	sw.Dataplane = dp

	var serverIPs []proto.IP
	var servers []*kv.Server
	for i := 0; i < 2; i++ {
		ip := proto.HostIP(uint32(100 + i))
		serverIPs = append(serverIPs, ip)
		h := n.AddHost("srv", ip)
		n.ConnectHostSwitch(h, sw, 10*sim.Gbps, 1*sim.Microsecond)
		s := kv.NewServer(kv.DefaultServerParams())
		servers = append(servers, s)
		h.SetApp(netsim.AppFunc(func(hh *netsim.Host) { s.Run(hh) }))
	}
	ch := n.AddHost("cli", proto.HostIP(1))
	n.ConnectHostSwitch(ch, sw, 10*sim.Gbps, 1*sim.Microsecond)
	p := kv.DefaultClientParams(0, serverIPs)
	p.WriteFrac = writeFrac
	p.WarmUp = 0
	cli := kv.NewClient(p)
	ch.SetApp(netsim.AppFunc(func(hh *netsim.Host) { cli.Run(hh) }))
	n.ComputeRoutes()

	run := func(end sim.Time) {
		s := sim.NewScheduler(0)
		n.Attach(core.Env{Sched: s, Src: 1})
		n.Start(end)
		for {
			at, ok := s.PeekTime()
			if !ok || at >= end {
				break
			}
			s.Step()
		}
	}
	return dp, servers, cli, run
}

func TestCacheServesHotReads(t *testing.T) {
	dp, servers, cli, run := rig(t, 0) // read-only workload
	run(10 * sim.Millisecond)
	if dp.Hits == 0 {
		t.Fatal("no switch cache hits")
	}
	// With zipf 1.8 and the 16 hottest of 10k keys cached, most reads hit.
	hitFrac := float64(dp.Hits) / float64(dp.Hits+dp.Misses)
	if hitFrac < 0.6 {
		t.Fatalf("hit fraction = %v, want most reads cached", hitFrac)
	}
	if cli.SwitchHits == 0 {
		t.Fatal("client saw no switch-served replies")
	}
	// Server reads only for cache misses (the last miss may still be in
	// flight at cutoff).
	if got, want := servers[0].Reads+servers[1].Reads, dp.Misses; want-got > 2 {
		t.Fatalf("server reads %d != misses %d", got, want)
	}
}

func TestWritesUpdateCacheInPlace(t *testing.T) {
	dp, servers, _, run := rig(t, 0.7)
	run(10 * sim.Millisecond)
	if dp.Updates == 0 {
		t.Fatal("writes never updated cache entries")
	}
	if dp.Refreshes == 0 {
		t.Fatal("SET replies never confirmed cache entries")
	}
	// All writes reach servers (NetCache never absorbs writes).
	if servers[0].Writes+servers[1].Writes == 0 {
		t.Fatal("no writes reached servers")
	}
	// Write-through means hot keys stay servable: hits continue even with
	// 70% writes.
	if dp.Hits == 0 {
		t.Fatal("no hits under write-through")
	}
}

func TestWriteSkewConcentratesOnResponsibleReplica(t *testing.T) {
	// The paper's end-to-end result hinges on this: with zipf-1.8 and 70%
	// writes, the replica responsible for the hot keys takes nearly all
	// write load.
	_, servers, _, run := rig(t, 0.7)
	run(10 * sim.Millisecond)
	w0, w1 := servers[0].Writes, servers[1].Writes
	if w0 < 2*w1 {
		t.Fatalf("responsible replica writes %d vs %d; want concentration", w0, w1)
	}
}

func TestCachedValid(t *testing.T) {
	dp := netcache.New(4, 64)
	if !dp.CachedValid(0) || !dp.CachedValid(3) {
		t.Fatal("warm entries should be valid")
	}
	if dp.CachedValid(4) {
		t.Fatal("key 4 should not be cached")
	}
}

func TestSwitchHitsAreFaster(t *testing.T) {
	// Read-only workload: switch-served replies must be measurably faster
	// than server-served ones — the latency benefit the protocol-level
	// Fig. 4 comparison turns on.
	dp, _, cli, run := rig(t, 0)
	run(10 * sim.Millisecond)
	if cli.SwitchHits == 0 || cli.Lat.Count() == 0 {
		t.Fatal("no traffic")
	}
	_ = dp
	// The latency distribution should be bimodal: its minimum (a switch
	// hit: 2 host links + switch turnaround) far below its maximum (a
	// server round trip).
	if min, max := cli.Lat.Percentile(0), cli.Lat.Percentile(100); min*2 > max {
		t.Fatalf("expected bimodal hit/miss latencies, got min=%v max=%v", min, max)
	}
}
