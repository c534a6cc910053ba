package flowsim

// FlowRecords returns how many flow records replica 0 holds, active and
// retired: every record it ever carved from its slab.
func FlowRecords(e *Engine) int {
	r := e.reps[0]
	return len(r.flows) + len(r.free)
}
