package crdb_test

import (
	"testing"

	"repro/internal/apps/crdb"
	"repro/internal/apps/kv"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// rig: leader + follower + one client on a single switch, protocol-level.
func rig(bound sim.Time) (*crdb.Server, *crdb.Server, *kv.Client, func(end sim.Time)) {
	n := netsim.New("net", 5)
	sw := n.AddSwitch("sw")
	leaderIP, followerIP := proto.HostIP(100), proto.HostIP(101)

	lp := crdb.DefaultParams()
	lp.Follower = followerIP
	lp.Bound = func() sim.Time { return bound }
	leader := crdb.NewServer(lp)
	lh := n.AddHost("leader", leaderIP)
	n.ConnectHostSwitch(lh, sw, 10*sim.Gbps, 1*sim.Microsecond)
	lh.SetApp(netsim.AppFunc(func(h *netsim.Host) { leader.Run(h) }))

	follower := crdb.NewServer(crdb.DefaultParams())
	fh := n.AddHost("follower", followerIP)
	n.ConnectHostSwitch(fh, sw, 10*sim.Gbps, 1*sim.Microsecond)
	fh.SetApp(netsim.AppFunc(func(h *netsim.Host) { follower.Run(h) }))

	cp := crdb.SocialClientParams(0, leaderIP)
	cp.WarmUp = 1 * sim.Millisecond
	cli := kv.NewClient(cp)
	ch := n.AddHost("cli", proto.HostIP(1))
	n.ConnectHostSwitch(ch, sw, 10*sim.Gbps, 1*sim.Microsecond)
	ch.SetApp(netsim.AppFunc(func(h *netsim.Host) { cli.Run(h) }))

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
	return leader, follower, cli, run
}

func TestReplicationAndCommitWait(t *testing.T) {
	leader, follower, cli, run := rig(20 * sim.Microsecond)
	run(50 * sim.Millisecond)
	if cli.Completed == 0 {
		t.Fatal("no operations completed")
	}
	if leader.Writes == 0 || follower.Replicated == 0 {
		t.Fatalf("writes=%d replicated=%d", leader.Writes, follower.Replicated)
	}
	// Every leader write replicates; a handful may be in flight at cutoff.
	if d := leader.Writes - follower.Replicated; d > 4 {
		t.Fatalf("replication lag %d: leader %d vs follower %d",
			d, leader.Writes, follower.Replicated)
	}
	if leader.CommitWaits == 0 {
		t.Fatal("no commit-wait accumulated")
	}
	// Write latency must include replication RTT plus the 20us bound.
	if w := cli.WriteLat.Percentile(50); w < 25*sim.Microsecond {
		t.Fatalf("median write latency %v, want > replication + commit wait", w)
	}
	// Reads skip replication and commit-wait entirely.
	if r, w := cli.ReadLat.Percentile(50), cli.WriteLat.Percentile(50); r >= w {
		t.Fatalf("read p50 %v should be far below write p50 %v", r, w)
	}
}

func TestTighterBoundImprovesWrites(t *testing.T) {
	measure := func(bound sim.Time) (writeP50 sim.Time, rate float64) {
		_, _, cli, run := rig(bound)
		run(50 * sim.Millisecond)
		return cli.WriteLat.Percentile(50), float64(cli.Completed)
	}
	ntpLat, ntpOps := measure(11 * sim.Microsecond)
	ptpLat, ptpOps := measure(943 * sim.Nanosecond)
	if ptpLat >= ntpLat {
		t.Fatalf("PTP write p50 %v should beat NTP %v", ptpLat, ntpLat)
	}
	if ptpOps <= ntpOps {
		t.Fatalf("PTP throughput %v should beat NTP %v", ptpOps, ntpOps)
	}
	// The latency delta must be roughly the bound difference (~10us).
	diff := ntpLat - ptpLat
	if diff < 5*sim.Microsecond || diff > 20*sim.Microsecond {
		t.Fatalf("write latency delta %v, want ~10us", diff)
	}
}

func TestSingleReplicaCommitWait(t *testing.T) {
	n := netsim.New("net", 5)
	sw := n.AddSwitch("sw")
	ip := proto.HostIP(100)
	p := crdb.DefaultParams()
	p.Bound = func() sim.Time { return 50 * sim.Microsecond }
	srv := crdb.NewServer(p)
	sh := n.AddHost("srv", ip)
	n.ConnectHostSwitch(sh, sw, 10*sim.Gbps, 1*sim.Microsecond)
	sh.SetApp(netsim.AppFunc(func(h *netsim.Host) { srv.Run(h) }))
	cp := crdb.SocialClientParams(0, ip)
	cp.WriteFrac = 1
	cp.WarmUp = 0
	cp.Outstanding = 1
	cli := kv.NewClient(cp)
	ch := n.AddHost("cli", proto.HostIP(1))
	n.ConnectHostSwitch(ch, sw, 10*sim.Gbps, 1*sim.Microsecond)
	ch.SetApp(netsim.AppFunc(func(h *netsim.Host) { cli.Run(h) }))
	n.ComputeRoutes()
	s := sim.NewScheduler(0)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(10 * sim.Millisecond)
	for {
		at, ok := s.PeekTime()
		if !ok || at >= 10*sim.Millisecond {
			break
		}
		s.Step()
	}
	if cli.Completed == 0 {
		t.Fatal("no writes completed")
	}
	// Closed loop with 1 outstanding: every write serializes behind the
	// 50us wait, so latency must exceed it.
	if w := cli.WriteLat.Percentile(0); w < 50*sim.Microsecond {
		t.Fatalf("write latency %v below the commit wait", w)
	}
}

func TestUncertaintyIntervalRestartsReads(t *testing.T) {
	// A large bound plus a write-hot key forces reads into the uncertainty
	// window of recent writes.
	leader, _, cli, run := rig(200 * sim.Microsecond)
	_ = cli
	run(30 * sim.Millisecond)
	if leader.ReadRestarts == 0 {
		t.Fatal("no uncertainty restarts despite 200us bound and hot keys")
	}
	// With a tight bound, restarts become much rarer (they cannot hit zero:
	// back-to-back ops on the hottest key land within any positive bound).
	leader2, _, _, run2 := rig(500 * sim.Nanosecond)
	run2(30 * sim.Millisecond)
	if leader2.ReadRestarts*4 > leader.ReadRestarts {
		t.Fatalf("tight bound restarts %d should be far below loose bound %d",
			leader2.ReadRestarts, leader.ReadRestarts)
	}
}
