package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"record this build's experiment outputs in testdata/outputs_golden.json (a deliberate output change)")

const outputsGoldenFile = "testdata/outputs_golden.json"

// checkGolden pins an experiment's rendered output: the sha256 of out must
// equal the hash recorded under key in testdata/outputs_golden.json. The
// experiment tests call it on the result they already computed, so the pin
// costs no extra simulation. A deliberate output change is recorded with
// -update-golden, which rewrites only the keys of the tests that ran.
func checkGolden(t *testing.T, key, out string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	golden := map[string]string{}
	b, err := os.ReadFile(outputsGoldenFile)
	if err == nil {
		err = json.Unmarshal(b, &golden)
	}
	if *updateGolden {
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		golden[key] = got
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputsGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	switch want, ok := golden[key]; {
	case !ok:
		t.Errorf("%s: no golden output hash; record one with -update-golden", key)
	case want != got:
		t.Errorf("%s: output sha256 %s, golden %s; output:\n%s", key, got, want, out)
	}
}

// scaleWallFree zeroes a scale result's wall-clock fields, the only ones
// that differ run to run, and renders it.
func scaleWallFree(r *ScaleResult) string {
	r.BuildMs = 0
	for i := range r.Phases {
		r.Phases[i].WallMs, r.Phases[i].PktsPerSec = 0, 0
	}
	return r.String()
}

// warmStartWallFree zeroes a warm-start result's wall-clock fields and
// renders it.
func warmStartWallFree(r *WarmStartResult) string {
	r.WarmupMs, r.ColdMs = 0, 0
	for i := range r.Points {
		r.Points[i].WallMs = 0
	}
	return r.String()
}

// placementTimingFree renders a copy of a placement study without its
// timing-dependent columns: a placed run's sync count (and the accounted
// makespan priced from it) varies with how the runners interleave at
// GOMAXPROCS > 1.
func placementTimingFree(r *PlacementResult) string {
	free := &PlacementResult{Points: slices.Clone(r.Points)}
	for i := range free.Points {
		free.Points[i].SyncMsgs, free.Points[i].AcctSPerSimS, free.Points[i].WallMs = 0, 0, 0
	}
	return free.String()
}
