package orch_test

import (
	"fmt"
	"testing"

	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Lagged sinks (core.Lagger) take a message at arrival + lag, so a run that
// stops inside that window holds arrivals whose counters only the end-of-run
// sweep (sim.Discarder, after DrainResidual) settles. These tests stop runs
// inside such windows and require the counters to be exact: equal under
// every execution, and moved by the window's arrivals.

// memCounts renders the memory-system counters the lag windows touch: Txns,
// every core's Blocks/StallTime and the charged cost (cost is the total of
// the split components' accounts, which the monolithic build shares).
func memCounts(cores []*memsim.Core, mem *memsim.Mem, cost uint64) string {
	s := fmt.Sprintf("txns %d cost %d;", mem.Txns, cost)
	for _, c := range cores {
		s += fmt.Sprintf(" %d/%d", c.Blocks, int64(c.StallTime))
	}
	return s
}

// splitCounts is memCounts over a split build's separate cost accounts.
func splitCounts(cores []*memsim.Core, mem *memsim.Mem) string {
	cost := mem.Cost().BusyNanos()
	for _, c := range cores {
		cost += c.Cost().BusyNanos()
	}
	return memCounts(cores, mem, cost)
}

// runMemSplit runs the 8-core split build under p until end.
func runMemSplit(t *testing.T, p func(n int) decomp.Placement, end sim.Time) (cores []*memsim.Core, mem *memsim.Mem) {
	t.Helper()
	s := orch.New()
	cores, mem = memsim.BuildSplit(s, 8, memsim.DefaultParams())
	execute(t, s, p(s.NumComponents()), end, orch.RunOptions{})
	return cores, mem
}

func singleGroup(n int) decomp.Placement  { return decomp.SingleGroup(n) }
func perComponent(n int) decomp.Placement { return decomp.PerComponent(n) }

// memReference computes what the memory system's counters must read at end
// from a lag-free model of it: each core runs a block, issues a request that
// arrives MemLatency later, the controller serves arrivals in order one
// MemService slot each, and the response arrives MemLatency after its slot
// ends and starts the next block. Requests issued together arrive in core
// order, the order of their channels' ordering sources.
func memReference(p memsim.Params, n int, end sim.Time) string {
	bd := p.BlockTime()
	blocks := make([]uint64, n)
	stall := make([]sim.Time, n)
	issue := make([]sim.Time, n)
	arrive := make([]sim.Time, n) // each core's outstanding request, at the controller
	for i := range arrive {
		blocks[i], issue[i], arrive[i] = 1, bd, bd+p.MemLatency
	}
	var txns uint64
	var busy sim.Time
	for {
		i := 0
		for j := range arrive {
			if arrive[j] < arrive[i] {
				i = j
			}
		}
		if arrive[i] >= end {
			break
		}
		txns++
		busy = max(arrive[i], busy) + p.MemService
		resp := busy + p.MemLatency
		arrive[i] = end // parked unless the response starts another block
		if resp < end {
			stall[i] += resp - issue[i]
		}
		if resp+bd < end {
			blocks[i]++
			issue[i] = resp + bd
			arrive[i] = issue[i] + p.MemLatency
		}
	}
	cost := txns * memsim.CostPerMemTxnNs
	s := ""
	for i := range blocks {
		cost += blocks[i] * memsim.CostPerBlockNs
		s += fmt.Sprintf(" %d/%d", blocks[i], int64(stall[i]))
	}
	return fmt.Sprintf("txns %d cost %d;", txns, cost) + s
}

// TestLagWindowCountersExactMemsim stops the 8-core memory system inside a
// controller lag window (a request arrived, its slot not yet booked) and a
// core lag window (a response arrived, its next block not yet ended): Txns,
// the charged cost, Blocks and StallTime must equal a lag-free reference
// model's, under the sequential, blocked2 and per-component split runs and
// the monolithic build, and the sequential counts must exceed those of a
// run stopped one lag earlier — the window held arrivals the sweep had to
// count.
func TestLagWindowCountersExactMemsim(t *testing.T) {
	p := memsim.DefaultParams()
	for _, end := range []sim.Time{1500*sim.Microsecond + 3*sim.Nanosecond, 50*sim.Microsecond + 61*sim.Nanosecond} {
		cores, mem := runMemSplit(t, singleGroup, end)
		want := memReference(p, 8, end)
		if got := splitCounts(cores, mem); got != want {
			t.Errorf("end %v, sequential: %s\nreference:  %s", end, got, want)
		}
		for _, pl := range []func(int) decomp.Placement{blocked, perComponent} {
			c, m := runMemSplit(t, pl, end)
			if got := splitCounts(c, m); got != want {
				t.Errorf("end %v, %s: %s\nreference: %s", end, pl(9).Name, got, want)
			}
		}
		ms := orch.New()
		mono := memsim.NewMonolithic("mono", 8, p)
		ms.Add(mono)
		ms.RunSequential(end)
		if got := memCounts(mono.Cores(), mono.Mem(), mono.Cost().BusyNanos()); got != want {
			t.Errorf("end %v, monolithic: %s\nreference:  %s", end, got, want)
		}

		_, early := runMemSplit(t, singleGroup, end-p.MemService)
		if early.Txns >= mem.Txns {
			t.Errorf("end %v: no request arrived in the controller's lag window (txns %d, %d one lag earlier)", end, mem.Txns, early.Txns)
		}
		earlyCores, _ := runMemSplit(t, singleGroup, end-p.BlockTime())
		var stall, earlyStall sim.Time
		for i := range cores {
			stall += cores[i].StallTime
			earlyStall += earlyCores[i].StallTime
		}
		if earlyStall >= stall {
			t.Errorf("end %v: no response arrived in a core's lag window (stall %v, %v one lag earlier)", end, stall, earlyStall)
		}
	}
}

// boundaryRun is what one execution of the lag-window Clos leaves behind.
type boundaryRun struct {
	ext     string // every boundary ExtPort's RxFrames, in boundary order
	sw      string // every switch's RxPackets/NoRoute, by topology index
	rxF     uint64 // Σ ExtPort RxFrames
	noRoute uint64 // Σ switch NoRoute
}

// runLagClos runs a two-pod Clos until end: pod 0's switches, the cores and
// pod 1's switches are three partitions when parts is set, one network
// otherwise. A shuffle keeps every boundary busy, and a pod-0 host sends a
// frame every 250 ns to a pod-1 host blackholed at its pod's spines, so
// no-route drops happen at boundary arrivals throughout the run.
func runLagClos(t *testing.T, parts bool, p func(n int) decomp.Placement, end sim.Time) boundaryRun {
	t.Helper()
	topo, meta := topogen.Clos(topogen.ClosSpec{
		Pods: 2, LeafPerPod: 2, SpinePerPod: 2, Cores: 2, HostsPerLeaf: 4,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	})
	var assign []int
	if parts {
		assign = make([]int, len(topo.Switches))
		for _, sw := range meta.Core {
			assign[sw] = 1
		}
		for _, sw := range append(append([]int{}, meta.Spine[1]...), meta.Leaf[1]...) {
			assign[sw] = 2
		}
	}
	b := topo.Build("clos", 3, assign, nil)
	victim := b.Hosts[meta.HostSlots[1][0][0]]
	for _, sw := range meta.Spine[1] {
		b.Switches[sw].SetPrefixRoute(proto.Prefix{Addr: victim.IP(), Bits: 32})
	}
	var hosts []*netsim.Host
	for _, h := range b.Hosts {
		if h != victim {
			hosts = append(hosts, h)
		}
	}
	workload.Install(hosts, workload.Spec{
		Pattern: workload.Shuffle{},
		Sizes:   workload.Pareto{Min: 600, Alpha: 1.3, Max: 30_000},
		Arrival: workload.Open{FlowsPerSec: 200_000},
		Seed:    3,
	})
	victim.BindUDP(7, func(proto.IP, uint16, []byte, int) {})
	sender := b.Hosts[meta.HostSlots[0][0][0]]
	var tick func()
	tick = func() {
		sender.SendUDP(victim.IP(), 7, 7, nil, 200)
		sender.After(250*sim.Nanosecond, tick)
	}
	b.Parts[b.HostPart[meta.HostSlots[0][0][0]]].OnStart(tick)

	s := orch.New()
	instantiate.WirePartitions(s, topo, b, true)
	execute(t, s, p(s.NumComponents()), end, orch.RunOptions{})
	var r boundaryRun
	for _, bd := range b.Boundaries {
		for _, ext := range []*netsim.ExtPort{bd.PortA, bd.PortB} {
			r.ext += fmt.Sprint(ext.RxFrames, " ")
			r.rxF += ext.RxFrames
		}
	}
	for _, sw := range b.Switches {
		r.sw += fmt.Sprintf("%d/%d ", sw.RxPackets, sw.NoRoute)
		r.noRoute += sw.NoRoute
	}
	return r
}

// TestLagWindowCountersExactBoundary stops a partitioned Clos while frames
// that crossed a partition boundary sit in their switch's pipeline — an
// ExtPort into a switch without a Dataplane lags SwitchLatency. The ports'
// RxFrames and the switches' RxPackets and NoRoute must agree across the
// sequential, blocked2 and per-component runs, the switch counters with the
// unpartitioned network too, and the sequential counts must exceed those of
// a run stopped one lag earlier.
func TestLagWindowCountersExactBoundary(t *testing.T) {
	const end = 100*sim.Microsecond + 7*sim.Nanosecond
	seq := runLagClos(t, true, singleGroup, end)
	for _, pl := range []func(int) decomp.Placement{blocked, perComponent} {
		if got := runLagClos(t, true, pl, end); got != seq {
			t.Errorf("%s: %+v\nsequential: %+v", pl(3).Name, got, seq)
		}
	}
	if mono := runLagClos(t, false, singleGroup, end); mono.sw != seq.sw {
		t.Errorf("switch counters: unpartitioned %s\npartitioned %s", mono.sw, seq.sw)
	}
	early := runLagClos(t, true, singleGroup, end-netsim.DefaultSwitchLatency)
	if early.rxF >= seq.rxF || early.noRoute >= seq.noRoute {
		t.Errorf("no boundary arrival (rx %d vs %d) or no-route drop (%d vs %d) in the lag window",
			seq.rxF, early.rxF, seq.noRoute, early.noRoute)
	}
}

// boundaryHeld returns how many frames the checkpoint fixture, run to at,
// had enqueued on a boundary port without their having left it: a frame
// enqueued before at that departed before at has reached the peer port by
// at plus the link delay, so the enqueued frames a run to that later
// instant has not received were still held at at.
func boundaryHeld(at sim.Time) uint64 {
	run := func(end sim.Time) *netsim.Built {
		s, b, _ := buildCkptSim(2, workload.Open{FlowsPerSec: 50_000})
		s.RunSequential(end)
		return b
	}
	var enqueued, arrived uint64
	for _, bd := range run(at).Boundaries {
		enqueued += bd.PortA.Iface().TxPackets + bd.PortB.Iface().TxPackets
	}
	for _, bd := range run(at + sim.Microsecond).Boundaries { // the fixture's link delay
		arrived += bd.PortA.RxFrames + bd.PortB.RxFrames
	}
	return enqueued - arrived
}

// TestCheckpointLagWindowResume captures at horizons inside lag windows —
// memory requests and responses that arrived but are not yet delivered,
// frames that crossed a partition boundary into a switch pipeline — and,
// at the same boundary horizon, inside hold windows: frames a boundary
// port already handed to its channel that have not yet departed. It
// captures under one group and under two, and resumes every capture under
// both: each resume must end in the state and event count of an
// uninterrupted run, with no frame left outstanding. The captured counters
// trail a cold run stopped at the same horizon, whose end-of-run sweep
// counts the window's arrivals; the gap proves the capture held some.
func TestCheckpointLagWindowResume(t *testing.T) {
	type fixture struct {
		s      *orch.Simulation
		digest func() uint64
		counts func() [2]uint64 // lagged arrivals counted so far, two ways
	}
	memFix := func() fixture {
		s := orch.New()
		cores, mem := memsim.BuildSplit(s, 8, memsim.DefaultParams())
		return fixture{s,
			func() uint64 { return memSplitDigest(t, cores, mem) },
			func() [2]uint64 {
				var stall sim.Time
				for _, c := range cores {
					stall += c.StallTime
				}
				return [2]uint64{mem.Txns, uint64(stall)}
			}}
	}
	netFix := func() fixture {
		s, built, eng := buildCkptSim(2, workload.Open{FlowsPerSec: 50_000})
		return fixture{s,
			func() uint64 { return ckptDigest(t, built, eng) },
			func() (n [2]uint64) {
				for _, bd := range built.Boundaries {
					n[0] += bd.PortA.RxFrames + bd.PortB.RxFrames
				}
				for _, sw := range built.Switches {
					n[1] += sw.RxPackets
				}
				return n
			}}
	}
	for _, tc := range []struct {
		name    string
		build   func() fixture
		at, dur sim.Time
		held    bool // the horizon must also sit inside a hold window
	}{
		{"memsim", memFix, 50*sim.Microsecond + 61*sim.Nanosecond, 100 * sim.Microsecond, false},
		{"boundary", netFix, sim.Millisecond + 137*sim.Nanosecond, 2 * sim.Millisecond, false},
		{"hold", netFix, sim.Millisecond + 37*sim.Nanosecond + 137, 2 * sim.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.held {
				if held := boundaryHeld(tc.at); held == 0 || held > 1<<62 {
					t.Fatalf("%d frames held on boundary ports at the horizon: no hold window", int64(held))
				}
			}
			ref := tc.build()
			refEvents := ref.s.RunSequential(tc.dur).Processed()
			refDigest := ref.digest()
			cold := tc.build()
			cold.s.RunSequential(tc.at)
			coldCounts := cold.counts()

			n := ref.s.NumComponents()
			placements := []decomp.Placement{decomp.SingleGroup(n), blocked(n)}
			for _, cp := range placements {
				c := tc.build()
				res, _ := execute(t, c.s, cp, tc.at, orch.RunOptions{Capture: true})
				if got := c.counts(); got != coldCounts {
					t.Fatalf("capture %d groups: counters %v at the horizon, cold run %v", cp.NumGroups(), got, coldCounts)
				}
				for _, rp := range placements {
					r := tc.build()
					var restored [2]uint64
					r.s.PreRun = func(*link.Group) { restored = r.counts() }
					_, events := execute(t, r.s, rp, tc.dur, orch.RunOptions{Resume: res.Checkpoint})
					if restored[0] >= coldCounts[0] || restored[1] >= coldCounts[1] {
						t.Fatalf("capture %d groups: restored counters %v, cold run %v: the capture held no lagged arrival",
							cp.NumGroups(), restored, coldCounts)
					}
					if d := r.digest(); d != refDigest {
						t.Fatalf("capture %d groups, resume %d groups: digest %#x != uninterrupted %#x",
							cp.NumGroups(), rp.NumGroups(), d, refDigest)
					}
					if got := res.Checkpoint.BaseEvents + events; got != refEvents {
						t.Fatalf("capture %d groups, resume %d groups: events %d+%d != %d",
							cp.NumGroups(), rp.NumGroups(), res.Checkpoint.BaseEvents, events, refEvents)
					}
					if n := r.s.LiveFrames(); n != 0 {
						t.Fatalf("capture %d groups, resume %d groups: leaked %d frames", cp.NumGroups(), rp.NumGroups(), n)
					}
				}
			}
		})
	}
}
