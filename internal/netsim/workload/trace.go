package workload

import (
	"fmt"

	"repro/internal/sim"
)

// TraceFlow is one recorded flow arrival: at Start, participant Src sends
// Bytes bytes to participant Dst. Indices are positions in the participant
// set the trace is replayed over, not host slots or addresses, so the same
// trace drives any fabric.
type TraceFlow struct {
	Start sim.Time
	Src   int
	Dst   int
	Bytes int64
}

// Trace replays a recorded arrival schedule over the participant set — the
// ROADMAP "trace replay" arrival process. It implements Arrival for the
// packet tier (workload.Install) and is equally consumed by the flow-level
// tier (netsim/flowsim), so one trace can drive either fidelity.
// Under a trace the Spec's Pattern and Sizes are ignored: destinations,
// sizes, and timing all come from the tuples.
type Trace struct {
	Flows []TraceFlow
}

func (*Trace) isArrival() {}

// Validate checks the trace against a participant count n: non-decreasing
// start times, indices in [0, n), no self-flows, positive sizes.
func (tr *Trace) Validate(n int) error {
	var prev sim.Time
	for i, f := range tr.Flows {
		if f.Start < prev {
			return fmt.Errorf("trace: flow %d starts at %v, before flow %d (%v) — sort by start time",
				i, f.Start, i-1, prev)
		}
		prev = f.Start
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("trace: flow %d endpoints (%d→%d) outside participant set of %d",
				i, f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("trace: flow %d is a self-flow (src == dst == %d)", i, f.Src)
		}
		if f.Bytes < 1 {
			return fmt.Errorf("trace: flow %d has non-positive size %d", i, f.Bytes)
		}
	}
	return nil
}
