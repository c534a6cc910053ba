package orch

import "repro/internal/sim"

// Speculate runs the plan optimistically at speculation ceiling k, with
// Capture or Resume if o sets them: RunOptimistic at any depth, for the
// tests that sweep the depth or checkpoint a speculative run.
func (pl *ExecutionPlan) Speculate(end sim.Time, o RunOptions, k int) (*RunResult, *SpecReport, error) {
	return pl.speculate(end, o, k)
}
