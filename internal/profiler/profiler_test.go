package profiler

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/link"
	"repro/internal/proxy"
	"repro/internal/sim"
)

func mkSample(simName string, wall uint64, virt sim.Time, peer string, wait, proc uint64, txd uint64) Sample {
	return Sample{
		Sim: simName, WallNs: wall, Virt: virt,
		Adapters: []AdapterSample{{
			Label: simName + ".a", Peer: peer,
			Counters: link.Counters{WaitNanos: wait, ProcNanos: proc, PeakDepth: txd + 3, TxData: txd, TxSync: txd, RxData: txd, RxSync: txd},
		}},
	}
}

func twoSimSamples() []Sample {
	// Simulator "fast" waits a lot on "slow"; "slow" never waits.
	return []Sample{
		mkSample("fast", 0, 0, "slow", 0, 0, 0),
		mkSample("slow", 0, 0, "fast", 0, 0, 0),
		mkSample("fast", 1_000_000, 1*sim.Millisecond, "slow", 800_000, 50_000, 100),
		mkSample("slow", 1_000_000, 1*sim.Millisecond, "fast", 10_000, 100_000, 100),
		mkSample("fast", 2_000_000, 2*sim.Millisecond, "slow", 1_600_000, 100_000, 200),
		mkSample("slow", 2_000_000, 2*sim.Millisecond, "fast", 20_000, 200_000, 200),
	}
}

func TestAnalyze(t *testing.T) {
	a, err := Analyze(twoSimSamples(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2ms virtual over 2ms wall => speed 1.0.
	if a.SimSpeed < 0.99 || a.SimSpeed > 1.01 {
		t.Fatalf("SimSpeed = %v, want ~1.0", a.SimSpeed)
	}
	if len(a.Sims) != 2 {
		t.Fatalf("got %d sims", len(a.Sims))
	}
	// Bottleneck ("slow", low wait) sorts first.
	if a.Sims[0].Name != "slow" {
		t.Fatalf("first (bottleneck) sim = %s, want slow", a.Sims[0].Name)
	}
	if w := a.Sims[1].WaitFrac; w < 0.75 || w > 0.85 {
		t.Fatalf("fast WaitFrac = %v, want ~0.8", w)
	}
	if e := a.Sims[1].Efficiency; e < 0.1 || e > 0.2 {
		t.Fatalf("fast Efficiency = %v, want ~0.155", e)
	}
	b := a.Bottlenecks(0.15)
	if len(b) != 1 || b[0] != "slow" {
		t.Fatalf("Bottlenecks = %v, want [slow]", b)
	}
	if !strings.Contains(a.String(), "simulation speed") {
		t.Fatal("String() missing header")
	}
}

func TestAnalyzeWarmupDrop(t *testing.T) {
	ss := twoSimSamples()
	// Pollute the first sample pair with absurd counters; dropping warm-up
	// lines must hide them.
	ss[0].Adapters[0].WaitNanos = 0
	a1, err := Analyze(ss, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// After dropping one warm-up sample, diffs run sample2-sample1.
	if w := a1.Sims[1].WaitFrac; w < 0.75 || w > 0.85 {
		t.Fatalf("WaitFrac after warmup drop = %v", w)
	}
	if _, err := Analyze(ss, 2, 1); err == nil {
		t.Fatal("expected error when drops consume all samples")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, 0, 0); err == nil {
		t.Fatal("empty samples should error")
	}
}

func TestLogRoundTrip(t *testing.T) {
	c := NewCollector()
	for _, s := range twoSimSamples() {
		c.Add(s)
	}
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := ParseLog(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(parsed))
	}
	a1, err := Analyze(parsed, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Analyze(c.Samples(), 0, 0)
	if a1.String() != a2.String() {
		t.Fatalf("round trip changed analysis:\n%s\nvs\n%s", a1, a2)
	}
}

func TestLogRoundTripProperty(t *testing.T) {
	f := func(wait, proc, txd uint16, virtMs uint8) bool {
		c := NewCollector()
		c.Add(mkSample("x", 5, sim.Time(virtMs)*sim.Millisecond, "y",
			uint64(wait), uint64(proc), uint64(txd)))
		var b strings.Builder
		if _, err := c.WriteTo(&b); err != nil {
			return false
		}
		got, _, err := ParseLog(strings.NewReader(b.String()))
		if err != nil || len(got) != 1 {
			return false
		}
		want := c.Samples()[0]
		g := got[0]
		return g.Sim == want.Sim && g.WallNs == want.WallNs && g.Virt == want.Virt &&
			len(g.Adapters) == 1 && g.Adapters[0] == want.Adapters[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseLogIgnoresForeignLines(t *testing.T) {
	in := "random log line\nsplitsim-prof {\"sample\":{\"sim\":\"a\",\"wall\":1,\"virt\":2}}\nanother\n"
	got, _, err := ParseLog(strings.NewReader(in))
	if err != nil || len(got) != 1 || got[0].Sim != "a" || got[0].Virt != 2 {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, _, err := ParseLog(strings.NewReader("splitsim-prof sim=a wall=1\n")); err == nil {
		t.Fatal("a prefixed line that is not a JSON record parsed without error")
	}
}

func TestLogRoundTripSpec(t *testing.T) {
	// Speculation counters (optimistic execution) survive the log round trip
	// with and without adapters, and a conservative sample parses as an
	// inactive speculative state.
	c := NewCollector()
	withEp := mkSample("opt", 7, 3*sim.Millisecond, "peer", 1, 2, 3)
	withEp.SpecActive = true
	withEp.Spec = link.SpecCounters{Snapshots: 11, Rollbacks: 2, Leaps: 40, Replayed: 9, WastedNanos: 1234}
	bare := Sample{Sim: "bare", WallNs: 8, Virt: 4 * sim.Millisecond,
		SpecActive: true, Spec: link.SpecCounters{Leaps: 7}}
	cons := mkSample("cons", 9, 5*sim.Millisecond, "peer", 0, 0, 0)
	c.Add(withEp)
	c.Add(bare)
	c.Add(cons)
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"spec":{"snap":11,"roll":2,"leap":40,"replay":9,"wasted":1234}`) {
		t.Fatalf("missing spec object in log:\n%s", b.String())
	}
	got, _, err := ParseLog(strings.NewReader(b.String()))
	if err != nil || len(got) != 3 {
		t.Fatalf("got %d samples err %v", len(got), err)
	}
	if !got[0].SpecActive || got[0].Spec != withEp.Spec {
		t.Fatalf("spec with adapters = %+v active=%v", got[0].Spec, got[0].SpecActive)
	}
	if !got[1].SpecActive || got[1].Spec != bare.Spec {
		t.Fatalf("spec bare = %+v active=%v", got[1].Spec, got[1].SpecActive)
	}
	if got[2].SpecActive {
		t.Fatal("conservative sample parsed as speculative")
	}
}

func TestWTPG(t *testing.T) {
	a, err := Analyze(twoSimSamples(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildWTPG(a)
	if len(g.Nodes) != 2 || len(g.Edges) != 2 {
		t.Fatalf("graph %d nodes %d edges", len(g.Nodes), len(g.Edges))
	}
	dot := g.DOT()
	for _, want := range []string{"digraph wtpg", `"fast" -> "slow"`, `"slow" -> "fast"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	txt := g.Render()
	// slow is the bottleneck: listed first with a marker.
	lines := strings.Split(txt, "\n")
	if len(lines) < 3 || !strings.Contains(lines[1], "slow") || !strings.HasPrefix(lines[1], "*") {
		t.Fatalf("Render should list slow first as bottleneck:\n%s", txt)
	}
}

func TestColorGradient(t *testing.T) {
	if color(0) != "#ff0040" {
		t.Fatalf("color(0) = %s, want pure red", color(0))
	}
	if color(1) != "#00ff40" {
		t.Fatalf("color(1) = %s, want pure green", color(1))
	}
	mid := color(0.5)
	if mid != "#ffff40" {
		t.Fatalf("color(0.5) = %s, want yellow", mid)
	}
}

func TestTransportLogRoundTrip(t *testing.T) {
	c := NewCollector()
	for _, s := range twoSimSamples() {
		c.Add(s)
	}
	ts := TransportSample{Name: "client", Counters: proxy.Counters{
		Dials: 3, DialFailures: 1, Reconnects: 2,
		FramesTx: 100, FramesRx: 90, BytesTx: 5000, BytesRx: 4500,
		HeartbeatsTx: 7, HeartbeatsRx: 6, AcksTx: 4, AcksRx: 5,
		Retransmits: 11, Corrupt: 1, BackoffNanos: 123456789,
	}}
	c.AddTransport(ts)
	c.AddTransport(TransportSample{Name: "server"})
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	samples, transports, err := ParseLog(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	if len(transports) != 2 || transports[0] != ts || transports[1].Name != "server" {
		t.Fatalf("transport round trip changed: %+v", transports)
	}
}
