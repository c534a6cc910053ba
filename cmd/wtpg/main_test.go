package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/profiler"
)

// TestLogPipeline exercises the parse→analyze→render path the tool wraps,
// on a synthetic log in the exact on-disk format.
func TestLogPipeline(t *testing.T) {
	line := func(sim, peer, ep string, wallVirt, wait, proc, data, sync uint64) string {
		return fmt.Sprintf(`splitsim-prof {"sample":{"sim":%q,"wall":%d,"virt":%d,"adapters":[{"ep":%q,"peer":%q,"wait":%d,"proc":%d,"txd":%d,"txs":%d,"rxd":%d,"rxs":%d}]}}`,
			sim, wallVirt, wallVirt*1000, ep, peer, wait, proc, data, sync, data, sync)
	}
	log := strings.Join([]string{
		line("net", "host", "x.a", 0, 0, 0, 0, 0),
		line("host", "net", "x.b", 0, 0, 0, 0, 0),
		line("net", "host", "x.a", 1000000, 900000, 1000, 5, 10),
		line("host", "net", "x.b", 1000000, 10000, 1000, 5, 10),
	}, "\n")
	samples, _, err := profiler.ParseLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	a, err := profiler.Analyze(samples, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// "host" barely waits: it is the bottleneck.
	if b := a.Bottlenecks(0.15); len(b) != 1 || b[0] != "host" {
		t.Fatalf("bottlenecks = %v", b)
	}
	g := profiler.BuildWTPG(a)
	dot := g.DOT()
	for _, want := range []string{`"net" -> "host"`, `"host" -> "net"`, "fillcolor"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q", want)
		}
	}
	// Simulation speed: 1ms virtual over 1ms wall.
	if a.SimSpeed < 0.99 || a.SimSpeed > 1.01 {
		t.Fatalf("speed = %v", a.SimSpeed)
	}
}
