package orch_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/decomp"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/ckpt_golden.json from this build's checkpoint bytes (a deliberate format bump)")

const ckptGoldenFile = "testdata/ckpt_golden.json"

// TestCheckpointGoldenBytes pins the serialized checkpoint format: the
// sha256 of Checkpoint.Data for each fixture must equal the recorded one,
// captured sequentially and from a quiesced per-component run alike. A
// change to the snap codec, a section layout, the sink walk's order or the
// canonical event order shows up here as a hash mismatch and has to be accepted
// explicitly with -update-golden.
func TestCheckpointGoldenBytes(t *testing.T) {
	arrival := workload.Open{FlowsPerSec: 50_000}
	fixtures := []struct {
		name  string
		at    sim.Time
		build func() *orch.Simulation
	}{
		{"fabric_direct", sim.Millisecond, func() *orch.Simulation {
			s, _, _ := buildCkptSim(3, arrival)
			return s
		}},
		{"memsim_split", 25 * sim.Microsecond, func() *orch.Simulation {
			s, _, _ := buildMemSplit()
			return s
		}},
	}
	sum := func(ck *orch.Checkpoint) string {
		h := sha256.Sum256(ck.Data)
		return hex.EncodeToString(h[:])
	}
	got := make(map[string]string, len(fixtures))
	for _, f := range fixtures {
		ck, err := f.build().CheckpointSequential(f.at)
		if err != nil {
			t.Fatalf("%s: CheckpointSequential: %v", f.name, err)
		}
		got[f.name] = sum(ck)
		s := f.build()
		res, _ := execute(t, s, decomp.PerComponent(s.NumComponents()), f.at, orch.RunOptions{Capture: true})
		if placed := sum(res.Checkpoint); placed != got[f.name] {
			t.Errorf("%s: per-component capture %s != sequential capture %s", f.name, placed, got[f.name])
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(ckptGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", ckptGoldenFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d fixtures, test has %d", ckptGoldenFile, len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: checkpoint sha256 %s, golden %s", name, h, want[name])
		}
	}
}
