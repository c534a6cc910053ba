// Parallelization through decomposition: split a fat-tree network into
// partitions connected by trunked SplitSim channels, run the partitions as
// truly parallel goroutines with conservative synchronization and the
// profiler attached, then post-process the profile into the wait-time
// profile graph — the paper's workflow for finding simulation bottlenecks.
package main

import (
	"bytes"
	"fmt"

	splitsim "repro"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/profiler"
	"repro/internal/proto"
)

func main() {
	const parts = 4
	const dur = 5 * splitsim.Millisecond

	topo, meta := netsim.FatTree(4, 10*splitsim.Gbps, 40*splitsim.Gbps, splitsim.Microsecond)
	assign := decomp.EvenFatTree(meta, len(topo.Switches), parts)
	built := topo.Build("net", 42, assign, nil)

	s := splitsim.NewSimulation()
	splitsim.WirePartitions(s, topo, built, true /* ignored: the plan bundles cut links */)

	// Every host streams to a partner in another pod.
	hosts := built.Hosts
	for i := 0; i < len(hosts)/2; i++ {
		a, b := hosts[i], hosts[len(hosts)/2+i]
		a.SetApp(periodic{dst: b.IP()})
		b.SetApp(periodic{dst: a.IP()})
		a.BindUDP(proto.PortBulk, drop)
		b.BindUDP(proto.PortBulk, drop)
	}

	// Attach the profiler and run coupled: one goroutine per partition.
	col := splitsim.NewCollector()
	s.PreRun = func(g *link.Group) { col.Attach(g, 250*splitsim.Microsecond) }
	if err := s.RunCoupled(dur); err != nil {
		panic(err)
	}

	// Post-process: simulation speed, efficiency, and the WTPG.
	a, err := splitsim.Analyze(col.Samples(), 2, 2)
	if err != nil {
		panic(err)
	}
	fmt.Print(a.String())
	g := splitsim.BuildWTPG(a)
	fmt.Print(g.Render())

	// The raw profile is what the wtpg post-processing tool reads
	// (col.WriteTo a file, then `go run ./cmd/wtpg -format dot profile.log`).
	// Round-trip it through the same parser in memory, writing no file.
	var raw bytes.Buffer
	if _, err := col.WriteTo(&raw); err != nil {
		panic(err)
	}
	samples, _, err := profiler.ParseLog(&raw)
	if err != nil {
		panic(err)
	}
	fmt.Printf("raw profile: %d samples parse back (post-process a saved one with cmd/wtpg)\n", len(samples))
}

func drop(proto.IP, uint16, []byte, int) {}

// periodic is a tiny CBR sender app.
type periodic struct{ dst proto.IP }

func (p periodic) Start(h *netsim.Host) {
	var tick func()
	tick = func() {
		h.SendUDP(p.dst, proto.PortBulk, proto.PortBulk, nil, 1400)
		h.After(20*splitsim.Microsecond, tick)
	}
	h.After(splitsim.Time(h.Rand().Int63n(int64(20*splitsim.Microsecond))), tick)
}
