package link

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestParallelWakePromptness is the park/wake regression test for true
// concurrency: a consumer that has burned its waitYields yields and parked
// must wake promptly when a producer on a different OS thread publishes.
// The test runs with GOMAXPROCS >= 2 and a thread-locked producer (test
// harness, not a runner) so the park path genuinely races a concurrent
// publish.
func TestParallelWakePromptness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for round := 0; round < 8; round++ {
		p := newPipe()
		got := make(chan time.Time, 1)
		go func() {
			m, ok, _ := p.recv()
			if !ok || m.T != 7 {
				got <- time.Time{}
				return
			}
			got <- time.Now()
		}()
		// Give the consumer time to burn its yields and park.
		time.Sleep(10 * time.Millisecond)
		runtime.LockOSThread()
		sent := time.Now()
		p.send(Message{T: 7, Kind: KindSync})
		runtime.UnlockOSThread()
		select {
		case woke := <-got:
			if woke.IsZero() {
				t.Fatal("consumer returned without the message")
			}
			if d := woke.Sub(sent); d > 500*time.Millisecond {
				t.Fatalf("parked consumer took %v to wake", d)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked consumer never woke")
		}
	}
}

// TestRecvAdaptiveClosed checks the blocking receive path's end-of-stream
// handling for a staged sync message: it drains first, then closed is
// reported.
func TestRecvAdaptiveClosed(t *testing.T) {
	p := newPipe()
	p.send(Message{T: 1, Kind: KindSync})
	p.close()
	if m, ok, closed := p.recv(); !ok || closed || m.T != 1 {
		t.Fatalf("recv = (%v, %v, %v), want message T=1", m, ok, closed)
	}
	if _, ok, closed := p.recv(); ok || !closed {
		t.Fatal("recv on drained closed pipe should report closed")
	}
}

// TestParallelYieldLetsPeerPublish pins why a blocked receiver yields before
// it parks: at GOMAXPROCS 1 the peer runner can only run when the waiter
// gives up the P, and one yield hands it over. A two-runner component-less
// lock-step run — MeasureSyncCost's shape — must end every wait inside the
// yields, with no park at all.
func TestParallelYieldLetsPeerPublish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	total := lockstepProbe(t, sim.Microsecond, calRounds)
	if total.TxSync < calRounds {
		t.Fatalf("lock-step run sent %d syncs, want >= %d", total.TxSync, calRounds)
	}
	if total.Parks != 0 {
		t.Fatalf("%d waits parked at GOMAXPROCS 1; every wait should end in a yield", total.Parks)
	}
}

// lockstepProbe runs two component-less runners joined by one channel of
// the given latency for the given number of lookahead windows and returns
// both runners' counters summed.
func lockstepProbe(t *testing.T, latency sim.Time, windows int) Counters {
	t.Helper()
	ch := NewChannel("lockstep", latency)
	ra := NewRunner("a", sim.NewScheduler(1))
	rb := NewRunner("b", sim.NewScheduler(2))
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	g := &Group{}
	g.Add(ra, rb)
	if err := g.Run(sim.Time(windows) * latency); err != nil {
		t.Fatal(err)
	}
	total := ra.Counters()
	total.Add(rb.Counters())
	return total
}

// TestBatchWindowsAmortizeSyncs pins the one pacing rule: the horizon alone
// bounds a batch, so a lock-step channel run for N lookahead windows sends
// at most N + 1 syncs in total — one per window plus the closing one — not
// one per side per window.
func TestBatchWindowsAmortizeSyncs(t *testing.T) {
	const windows = 250
	syncs := lockstepProbe(t, 8*sim.Microsecond, windows).TxSync
	if syncs == 0 || syncs > windows+1 {
		t.Fatalf("lock-step run over %d windows sent %d syncs; want 1..%d", windows, syncs, windows+1)
	}
}

// TestMeasureSyncCost sanity-checks the calibration probe: it must complete
// and price a sync exchange at something positive and sane.
func TestMeasureSyncCost(t *testing.T) {
	ns := MeasureSyncCost()
	if ns <= 0 {
		t.Fatal("MeasureSyncCost returned 0 — degenerate measurement")
	}
	if ns > 1e8 {
		t.Fatalf("MeasureSyncCost = %v ns/sync, implausibly slow", ns)
	}
}
