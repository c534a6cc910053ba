package workload_test

import (
	"testing"

	"repro/internal/netsim/workload"
	"repro/internal/sim"
)

func TestTraceValidate(t *testing.T) {
	ok := &workload.Trace{Flows: []workload.TraceFlow{
		{Start: 0, Src: 0, Dst: 1, Bytes: 10},
		{Start: 0, Src: 1, Dst: 0, Bytes: 10},
		{Start: 5, Src: 2, Dst: 0, Bytes: 10},
	}}
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []workload.Trace{
		{Flows: []workload.TraceFlow{{Start: 5, Src: 0, Dst: 1, Bytes: 1}, {Start: 0, Src: 0, Dst: 1, Bytes: 1}}},
		{Flows: []workload.TraceFlow{{Start: 0, Src: 0, Dst: 3, Bytes: 1}}},
		{Flows: []workload.TraceFlow{{Start: 0, Src: -1, Dst: 1, Bytes: 1}}},
		{Flows: []workload.TraceFlow{{Start: 0, Src: 1, Dst: 1, Bytes: 1}}},
		{Flows: []workload.TraceFlow{{Start: 0, Src: 0, Dst: 1, Bytes: 0}}},
	}
	for i := range bad {
		if err := bad[i].Validate(3); err == nil {
			t.Fatalf("bad trace %d accepted", i)
		}
	}
}

// TestTraceReplayPacketTier replays a hand-written trace over a small Clos
// and checks every tuple became exactly one flow with the traced size, at
// the traced time.
func TestTraceReplayPacketTier(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.TraceFlow{
		{Start: 0, Src: 0, Dst: 5, Bytes: 2000},
		{Start: 10 * sim.Microsecond, Src: 3, Dst: 1, Bytes: 40_000},
		{Start: 10 * sim.Microsecond, Src: 3, Dst: 2, Bytes: 1500},
		{Start: 50 * sim.Microsecond, Src: 7, Dst: 0, Bytes: 100},
	}}
	s, _, hosts := closHosts(t, smallClos, 23, 1)
	eng := workload.Install(hosts, workload.Spec{
		Arrival: tr,
		Seed:    23,
	})
	s.RunSequential(2 * sim.Millisecond)
	r := eng.Collect()
	if r.FlowsStarted != len(tr.Flows) {
		t.Fatalf("started %d flows, want %d", r.FlowsStarted, len(tr.Flows))
	}
	if r.FlowsCompleted != len(tr.Flows) {
		t.Fatalf("completed %d flows, want %d", r.FlowsCompleted, len(tr.Flows))
	}
	var wantBytes int64
	for _, f := range tr.Flows {
		wantBytes += f.Bytes
	}
	if r.BytesSent != wantBytes {
		t.Fatalf("sent %d bytes, want %d", r.BytesSent, wantBytes)
	}
	if live := s.LiveFrames(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

// TestTraceReplayDeterministicAcrossPartitions: the same trace on the same
// fabric produces identical flow counts however the fabric is partitioned.
func TestTraceReplayDeterministicAcrossPartitions(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.TraceFlow{
		{Start: 0, Src: 0, Dst: 9, Bytes: 3000},
		{Start: 2 * sim.Microsecond, Src: 9, Dst: 0, Bytes: 3000},
		{Start: 4 * sim.Microsecond, Src: 4, Dst: 12, Bytes: 30_000},
	}}
	run := func(parts int) workload.Report {
		s, _, hosts := closHosts(t, smallClos, 29, parts)
		eng := workload.Install(hosts, workload.Spec{Arrival: tr, Seed: 29})
		if parts > 1 {
			if err := s.RunCoupled(1 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
		} else {
			s.RunSequential(1 * sim.Millisecond)
		}
		return eng.Collect()
	}
	a, b := run(1), run(4)
	if a.FlowsStarted != b.FlowsStarted || a.FlowsCompleted != b.FlowsCompleted ||
		a.BytesSent != b.BytesSent || a.FCT.Mean() != b.FCT.Mean() {
		t.Fatalf("partitioned replay diverged: %v vs %v", a, b)
	}
}
