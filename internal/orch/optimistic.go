package orch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Optimistic parallel execution. A conservative run never lets a group run
// past the horizon its peers have promised; on latency-dominated graphs that
// leaves cores idle climbing sync ladders through windows where nothing ever
// arrives. An optimistic run (RunOptimistic) lets each group speculate up to
// K sync windows past its committed horizon, holding a per-group in-memory
// snapshot to fall back on when a straggler message proves the speculation
// wrong. Outgoing messages stay withheld until the committed horizon passes
// them, so misspeculation never escapes a group and a rollback is strictly
// local. The standing invariant is inherited unchanged: an optimistic run is
// bit-identical to RunSequential for every placement, every K, and every
// interleaving.
//
// The fabric half (the speculation steps of the runner loop, straggler
// detection, input-log replay, GVT leaping) lives in link/spec.go. This file
// is the orchestrator half, the executor's speculation-install phase:
// deciding which groups may speculate, building the snapshot/restore
// closures over the group's components and scheduler, wiring replay pool
// owners, and reporting what speculation did.

// speculate executes the plan optimistically with speculation ceiling k
// (k = 0 never speculates; groups still join the leap domain for its GVT
// leaping). The depth adapts at runtime — a rollback halves a group's
// working depth, clean commits earn it back — so k bounds it rather than
// fixing it. Remote channels are synchronized only conservatively, so a
// plan with any is rejected.
func (pl *ExecutionPlan) speculate(end sim.Time, o RunOptions, k int) (*RunResult, *SpecReport, error) {
	if n := pl.s.remoteChannels(); n > 0 {
		return &RunResult{}, nil, fmt.Errorf("%w: plan has %d remote connection(s)", ErrRemoteUnsupported, n)
	}
	return pl.run(end, o, k)
}

// GroupSpec is one group's speculation outcome.
type GroupSpec struct {
	Group string
	// Conservative is the reason this group ran without speculation
	// ("" when it speculated): a build-time ineligibility (non-Stateful
	// component, aux state) or a runtime demotion (unsnapshottable queue,
	// unloggable input).
	Conservative string
	Counters     link.SpecCounters
}

// SpecReport is what speculation did across an optimistic run.
type SpecReport struct {
	Groups []GroupSpec
}

// Totals sums the per-group counters.
func (r *SpecReport) Totals() link.SpecCounters {
	var t link.SpecCounters
	for i := range r.Groups {
		c := r.Groups[i].Counters
		t.Snapshots += c.Snapshots
		t.Rollbacks += c.Rollbacks
		t.Leaps += c.Leaps
		t.Replayed += c.Replayed
		t.WastedNanos += c.WastedNanos
	}
	return t
}

// payRef locates one pending delivery's deep-copied pooled payload inside a
// groupSnap's payload buffer (enc=false: the payload was captured by
// reference — it is not pooled, and messages are immutable after send).
type payRef struct {
	off, n int32
	enc    bool
	owner  core.Component
}

// groupSnap holds one group's recycled snapshot buffers and implements the
// SpecControl Snapshot/Restore closures. Everything is captured in memory by
// reference or into reused flat buffers — no canonical sort, no container
// framing, no file I/O — because the snapshot restores only into the very
// scheduler and components it was taken from.
type groupSnap struct {
	sched *sim.Scheduler
	comps []core.Stateful // group members, registration order
	sinks sinkIndex       // every delivery sink's pool owner

	mark  sim.Mark
	state snap.Encoder // concatenated per-component state
	offs  []int        // offs[i] = end of component i's bytes in state
	evs   []sim.PendingEvent
	prefs []payRef // parallel to evs
	pays  snap.Encoder
	work  []sim.PendingEvent // restore-side scratch

	// ports are the direct ports of the group's co-located channels: they
	// count sends as they happen, so a rollback rewinds their counters to
	// portTx, the values at the snapshot.
	ports  []*link.DirectPort
	portTx []uint64
}

// snapshot captures the group at its committed horizon. An error (a closure
// event in the queue, a payload with no codec, a pooled delivery whose sink
// has no known owner) demotes the group to conservative execution — the
// fabric treats it as "cannot speculate", never as a failed run.
func (gs *groupSnap) snapshot() error {
	gs.state.Reset()
	gs.offs = gs.offs[:0]
	for _, c := range gs.comps {
		if err := c.SnapshotState(&gs.state); err != nil {
			return fmt.Errorf("component %s: %w", c.Name(), err)
		}
		gs.offs = append(gs.offs, gs.state.Len())
	}
	evs, err := gs.sched.ExportPendingInto(gs.evs)
	gs.evs = evs
	if err != nil {
		return err
	}
	gs.pays.Reset()
	gs.prefs = gs.prefs[:0]
	for i := range gs.evs {
		e := &gs.evs[i]
		var ref payRef
		if e.Kind == sim.PendingDelivery {
			if _, pooled := e.Payload.(core.Releaser); pooled {
				// The live payload returns to its pool if this snapshot is
				// ever restored (the rollback sweep releases the queue), so
				// the snapshot needs its own copy, re-mintable from the
				// owning component's pool.
				sk, ok := gs.sinks.lookup(e.Sink)
				if !ok {
					return fmt.Errorf("%w: pooled delivery at %v with unowned sink %T",
						core.ErrUnknownSink, e.At, e.Sink)
				}
				off := gs.pays.Len()
				if err := core.EncodePayload(&gs.pays, e.Payload); err != nil {
					return err
				}
				ref = payRef{off: int32(off), n: int32(gs.pays.Len() - off), enc: true, owner: sk.owner}
			}
		}
		gs.prefs = append(gs.prefs, ref)
	}
	gs.portTx = gs.portTx[:0]
	for _, p := range gs.ports {
		gs.portTx = append(gs.portTx, p.Stats.TxData)
	}
	gs.mark = gs.sched.CaptureMark()
	return nil
}

// restore rebuilds exactly the captured state. The fabric has already
// discarded the speculative queue (DiscardPending), so the scheduler is
// empty; records re-enter with their original sequence numbers, which is
// what makes re-execution from the restore point bit-identical.
func (gs *groupSnap) restore() error {
	gs.sched.RestoreMark(gs.mark)
	start := 0
	for i, c := range gs.comps {
		dec := snap.NewDecoder(gs.state.Bytes()[start:gs.offs[i]])
		if err := c.RestoreState(dec); err != nil {
			return fmt.Errorf("component %s: %w", c.Name(), err)
		}
		if err := dec.Err(); err != nil {
			return fmt.Errorf("component %s: %w", c.Name(), err)
		}
		start = gs.offs[i]
	}
	for i, p := range gs.ports {
		p.Stats.TxData = gs.portTx[i]
	}
	gs.work = gs.work[:0]
	for i := range gs.evs {
		e := gs.evs[i]
		if ref := gs.prefs[i]; ref.enc {
			dec := snap.NewDecoder(gs.pays.Bytes()[ref.off : ref.off+ref.n])
			p, err := core.DecodePayload(dec, ref.owner)
			if err != nil {
				return err
			}
			e.Payload = p
		}
		gs.work = append(gs.work, e)
	}
	return gs.sched.RestorePending(gs.work)
}

// specReason decides build-time eligibility for group gi: "" when every
// member can snapshot, otherwise the reason the group must stay
// conservative. Runtime conditions (a closure event pending at snapshot
// time, payloads without codecs) are left to the fabric's demotion path.
func (pl *ExecutionPlan) specReason(gi int) string {
	if len(pl.s.auxs) > 0 {
		// Aux state (workload engines, reservoirs) is simulation-global and
		// mutated from component event handlers; it cannot roll back with a
		// single group, so no group may speculate past state it touches.
		return "aux state " + pl.s.auxs[0].name + " attached"
	}
	for _, ci := range pl.groupComps[gi] {
		if _, ok := pl.s.comps[ci].(core.Stateful); !ok {
			return "component " + pl.Comps[ci].Name + " is not checkpointable"
		}
	}
	return ""
}

// installSpec arms every runner's loop for optimistic execution with
// speculation ceiling k and joins them into one leap domain. Groups that
// cannot speculate run at depth 0 (GVT leaping only) and are reported with
// their reason — a plan with no eligible group still runs, it just never
// speculates. Call after wire.
func (pl *ExecutionPlan) installSpec(scheds []*sim.Scheduler, runners []*link.Runner, k int) {
	s := pl.s
	// A sink the walk could not reach only demotes the group whose snapshot
	// meets a pooled delivery to it, so the walk's error is not the run's.
	sinks, _, _ := s.sinkIndex()
	for gi := range runners {
		ctl := &link.SpecControl{MaxWindows: k}
		if reason := pl.specReason(gi); reason != "" {
			ctl.Reason = reason
		} else if k > 0 {
			gs := &groupSnap{sched: scheds[gi], sinks: sinks}
			for _, ci := range pl.groupComps[gi] {
				gs.comps = append(gs.comps, s.comps[ci].(core.Stateful))
			}
			for i, c := range s.chans {
				if pc := pl.Channels[i]; pc.Intra && pc.GroupA == gi {
					gs.ports = append(gs.ports, c.ports[:]...)
				}
			}
			ctl.Snapshot = gs.snapshot
			ctl.Restore = gs.restore
		}
		runners[gi].SetSpec(ctl)
	}
	// Replay pool owners per cross-group endpoint sub-channel: a logged
	// pooled payload re-mints from the receiving side's component pool.
	for _, c := range s.chans {
		for x, ep := range c.ep {
			if ep != nil {
				ep.SetSpecOwner(c.sub, c.comp[x])
			}
		}
	}
	link.NewSpecDomain(runners)
}

// specReport collects the finished run's per-group speculation outcome.
func (pl *ExecutionPlan) specReport(runners []*link.Runner) *SpecReport {
	rep := &SpecReport{Groups: make([]GroupSpec, len(runners))}
	for gi, r := range runners {
		counters, reason, _ := r.SpecStats()
		rep.Groups[gi] = GroupSpec{Group: pl.GroupNames[gi], Conservative: reason, Counters: counters}
	}
	return rep
}
