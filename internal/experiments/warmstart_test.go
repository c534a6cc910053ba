package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// TestWarmStart checks the sweep's core guarantee: the identity point,
// forked from the warmup checkpoint, reproduces the cold run bit for bit,
// and the checkpoint file round-trips through -checkpoint-file /
// -restore-file.
func TestWarmStart(t *testing.T) {
	opts := Options{Scale: 1, Seed: 42}
	opts.Scale = 0.25
	dir := t.TempDir()
	opts.CheckpointFile = filepath.Join(dir, "warm.ckpt")

	r, err := WarmStart(opts)
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if !r.IdentityMatch {
		t.Fatalf("identity point diverged from the cold run:\n%s", r)
	}
	if len(r.Points) != 3 || r.Points[0].Name != "identity" {
		t.Fatalf("unexpected sweep points: %+v", r.Points)
	}
	if r.Points[0].Completed == 0 || r.Points[0].Events != r.ColdEvents {
		t.Fatalf("identity point: completed=%d events=%d (cold %d)",
			r.Points[0].Completed, r.Points[0].Events, r.ColdEvents)
	}
	if _, err := os.Stat(opts.CheckpointFile); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	// Resume the whole sweep from the saved file: no warmup simulation, same
	// results.
	opts2 := Options{Scale: 1, Seed: 42}
	opts2.Scale = 0.25
	opts2.RestoreFile = opts.CheckpointFile
	r2, err := WarmStart(opts2)
	if err != nil {
		t.Fatalf("WarmStart(restore): %v", err)
	}
	if !r2.IdentityMatch {
		t.Fatalf("restored sweep identity point diverged:\n%s", r2)
	}
	if r2.Points[0].Events != r.Points[0].Events {
		t.Fatalf("restored sweep events %d != original %d", r2.Points[0].Events, r.Points[0].Events)
	}
	// Resuming from the file renders the same sweep as capturing it.
	checkGolden(t, "warmstart", warmStartWallFree(r))
	checkGolden(t, "warmstart", warmStartWallFree(r2))

	// A horizon outside the run is rejected, not silently clamped.
	bad := Options{Scale: 1, Seed: 42}
	bad.Scale = 0.25
	bad.CheckpointAt = 10 * sim.Millisecond
	if _, err := WarmStart(bad); err == nil {
		t.Fatal("CheckpointAt beyond the run duration should fail")
	}
}
