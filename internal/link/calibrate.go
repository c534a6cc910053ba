package link

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// calRounds is the number of sync exchanges MeasureSyncCost times. Large
// enough to amortize goroutine start-up and clock quantization, small
// enough that calibration costs about a millisecond.
const calRounds = 4096

// MeasureSyncCost wall-clock-times a pure synchronization ping-pong between
// two coupled runners on this machine's actual channel fabric and returns
// the measured host nanoseconds per sync message sent. The two runners
// carry no components, so every message exchanged is a sync and the result
// isolates the fabric's per-quantum price — publish, wake, drain, horizon
// update — as it really is on this host, yield/park discipline included.
// The pair runs in lock step, so it sends one sync per lookahead window:
// the price per sync is the price per window.
//
// The decomposition model's calibrated SyncCostNs constant stands in for
// this number when reproducing the paper's figures; placement decisions for
// a run on *this* machine should prefer the measured value
// (decomp.HostParams, orch.HostModelParams). Returns 0 when the
// measurement is degenerate (clock too coarse to observe the run); callers
// treat 0 as "keep the calibrated default".
func MeasureSyncCost() float64 {
	const latency = sim.Microsecond
	ch := NewChannel("calibrate", latency)
	g := &Group{}
	ra := NewRunner("cal.a", sim.NewScheduler(1))
	rb := NewRunner("cal.b", sim.NewScheduler(2))
	ra.Attach(ch.SideA())
	rb.Attach(ch.SideB())
	g.Add(ra, rb)

	start := time.Now()
	if err := g.Run(calRounds * latency); err != nil {
		return 0
	}
	wall := float64(time.Since(start).Nanoseconds())
	syncs := ch.SideA().Stats.TxSync + ch.SideB().Stats.TxSync
	if syncs == 0 || wall <= 0 {
		return 0
	}
	return wall / float64(syncs)
}

var (
	measuredOnce sync.Once
	measuredCost float64
)

// MeasuredSyncCost returns MeasureSyncCost's result, measured once per
// process and cached. The fabric price does not drift within a run, but a
// fresh ping-pong costs about a millisecond — too much to pay on every
// placement decision or plan rendering, which is where this number is
// consumed (orch.HostModelParams, plan output).
func MeasuredSyncCost() float64 {
	measuredOnce.Do(func() { measuredCost = MeasureSyncCost() })
	return measuredCost
}
