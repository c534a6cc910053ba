package orch

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/sim"
)

// One executor. Every way of running a plan — sequential, placed, into a
// checkpoint, out of one, speculatively — is the same sequence with different
// options, written once in ExecutionPlan.run. Execute is its conservative
// spelling; the Run*/Checkpoint*/Resume* methods at the bottom of this file
// are fixed-option spellings of Execute, and RunOptimistic is the one way in
// to speculation.

// DefaultSpecWindows is the speculation ceiling RunOptimistic uses: deep
// enough to bridge the empty-window stretches of latency-dominated graphs
// while keeping the worst-case re-execution (one snapshot window) cheap.
const DefaultSpecWindows = 8

// noSpec is run's speculation ceiling for a conservative execution.
const noSpec = -1

// RunOptions is everything a caller can vary about an execution.
type RunOptions struct {
	// Resume, when set, restores the checkpoint into the freshly built
	// simulation before running: the run starts at Resume.At, not zero.
	Resume *Checkpoint
	// Capture quiesces every channel once the run reaches end and
	// serializes the simulation there into RunResult.Checkpoint.
	Capture bool
}

// RunResult is what an execution leaves behind.
type RunResult struct {
	// Scheds holds the run's schedulers, one per runner group in group
	// order, for event counts and clocks.
	Scheds []*sim.Scheduler
	// Checkpoint is the captured snapshot; nil unless Capture was set.
	Checkpoint *Checkpoint
}

// ErrRemoteUnsupported reports a simulation with remote (cross-process)
// connections being run in a way that cannot synchronize them: only a
// conservative execution (Execute) from time zero, at any placement, keeps
// remote channels synchronized.
var ErrRemoteUnsupported = errors.New("orch: remote channels unsupported by this executor")

// Execute runs the plan conservatively until virtual time end (events at
// exactly end do not run): each group runs its events up to the horizon its
// peers have promised and exchanges one sync per lookahead window. Each
// runner group is a plain goroutine and thread placement is the Go
// scheduler's. Results are bit-identical at every placement.
func (pl *ExecutionPlan) Execute(end sim.Time, o RunOptions) (*RunResult, error) {
	res, _, err := pl.run(end, o, noSpec)
	return res, err
}

// run is the one executor body; k is the speculation ceiling (noSpec: run
// conservatively, k >= 0: speculate, see optimistic.go). The depth adapts at
// run time — a rollback halves a group's working depth, clean commits earn
// it back — so k bounds it rather than fixing it; k = 0 never speculates,
// but the groups still join one leap domain for its GVT leaping. The
// phases, in order:
//
//  0. check the plan before any runner exists. Remote channels are
//     synchronized only conservatively, so speculation, Capture and Resume
//     refuse them. Speculation (k > 0), Capture and Resume share one
//     snapshot contract: every component is core.Stateful, so the sink walk
//     visits them all, and a speculative run has no aux state, which is
//     simulation-global and cannot roll back with one group. A plan that
//     breaks it fails with core.ErrNotCheckpointable naming the group and
//     component;
//  1. build one scheduler and runner per group (clock at Resume.At when
//     resuming);
//  2. wire every channel — direct ports intra-group, synchronized channels
//     cross-group — and attach components in registration order with
//     their sequential ordering sources;
//  3. restore component, aux, counter and pending-event state (Resume);
//  4. install speculation (k >= 0);
//  5. publish the group on Simulation.Group and call Simulation.PreRun;
//  6. run the group, every runner on its own goroutine;
//  7. quiesce the channels: every message still in a pipe is handed to its
//     scheduler (DrainResidual), which a lagged sink's end-of-run count
//     needs;
//  8. capture a checkpoint (Capture);
//  9. sweep every scheduler so frames still in flight return to their
//     pools and Discarder sinks settle their counters — on every exit path,
//     so the leak counters read zero after a failed restore or a panicked
//     runner too.
//
// A one-group plan is the sequential execution: its lone runner has no
// endpoints, so the run is a single RunBefore(end) on one scheduler. The
// result is never nil; on error it carries what the run produced so far.
// The speculation report is nil unless k >= 0.
func (pl *ExecutionPlan) run(end sim.Time, o RunOptions, k int) (*RunResult, *SpecReport, error) {
	s := pl.s
	res := &RunResult{}
	if n := s.remoteChannels(); n > 0 && k >= 0 {
		return res, nil, fmt.Errorf("%w: plan has %d remote connection(s)", ErrRemoteUnsupported, n)
	} else if n > 0 && (o.Resume != nil || o.Capture) {
		return res, nil, fmt.Errorf("%w: remote connections", core.ErrNotCheckpointable)
	}
	if k > 0 || o.Resume != nil || o.Capture {
		if k > 0 && len(s.auxs) > 0 {
			return res, nil, fmt.Errorf("%w: aux state %q cannot roll back with one group",
				core.ErrNotCheckpointable, s.auxs[0].name)
		}
		for gi, members := range pl.groupComps {
			for _, ci := range members {
				if _, ok := s.comps[ci].(core.Stateful); !ok {
					return res, nil, fmt.Errorf("%w: group %s: component %q does not implement core.Stateful",
						core.ErrNotCheckpointable, pl.GroupNames[gi], pl.Comps[ci].Name)
				}
			}
		}
	}

	g := &link.Group{}
	scheds := make([]*sim.Scheduler, pl.NumGroups())
	runners := make([]*link.Runner, pl.NumGroups())
	for gi, name := range pl.GroupNames {
		// Events posted without an explicit source take the scheduler's id.
		// Sequential execution has always used 0 and placed groups 1000+gi;
		// the recorded digests and checkpoint bytes depend on both.
		id := int32(0)
		if len(scheds) > 1 {
			id = int32(1000 + gi)
		}
		scheds[gi] = sim.NewScheduler(id)
		if o.Resume != nil {
			scheds[gi].StartAt(o.Resume.At)
		}
		runners[gi] = link.NewRunner(name, scheds[gi])
		runners[gi].SetRestored(o.Resume != nil)
		g.Add(runners[gi])
	}
	res.Scheds = scheds
	defer func() {
		for _, sc := range scheds {
			sc.DiscardPending(core.ReleaseMessage)
		}
	}()

	pl.wire(scheds, runners)
	for gi, members := range pl.groupComps {
		for _, ci := range members {
			c := s.comps[ci]
			runners[gi].AddComponent(c, s.srcOf[c])
		}
	}

	if o.Resume != nil {
		if err := s.restoreInto(o.Resume, pl, scheds); err != nil {
			return res, nil, err
		}
		// Lift every endpoint's pre-first-message horizon floor to the resume
		// time: a fresh endpoint that has heard nothing would otherwise bound
		// its runner to latency-from-zero and deadlock the restored run.
		for _, r := range runners {
			for _, e := range r.Endpoints() {
				e.SetStart(o.Resume.At)
			}
		}
	}

	if k >= 0 {
		pl.installSpec(scheds, runners, k)
	}

	s.Group = g
	if s.PreRun != nil {
		s.PreRun(g)
	}
	err := g.Run(end)
	var spec *SpecReport
	if k >= 0 {
		spec = pl.specReport(runners)
	}
	if err != nil {
		return res, spec, err
	}
	// Residual messages go onto the schedulers before the deferred sweep, so
	// a lagged sink's Discard counts those that arrived before end.
	quiesce(g)
	if o.Capture {
		res.Checkpoint, err = s.capture(scheds, end)
	}
	return res, spec, err
}

// execute plans p and executes the plan.
func (s *Simulation) execute(end sim.Time, p decomp.Placement, o RunOptions) (*RunResult, error) {
	pl, err := s.Plan(p)
	if err != nil {
		return &RunResult{}, err
	}
	return pl.Execute(end, o)
}

// sequential executes the one-group plan. A simulation with remote
// connections has no sequential execution — silently running half a
// topology would be a correctness trap — so it is rejected here, where the
// one-group plan would otherwise be a legitimate placed run.
func (s *Simulation) sequential(end sim.Time, o RunOptions) (*RunResult, error) {
	if n := s.remoteChannels(); n > 0 {
		return &RunResult{}, fmt.Errorf("%w: sequential run with %d remote connection(s); distributed runs are placed runs",
			ErrRemoteUnsupported, n)
	}
	return s.execute(end, decomp.SingleGroup(len(s.comps)), o)
}

// RunSequential executes the whole simulation on a single scheduler until
// end and returns that scheduler for statistics. It has no error return:
// a bad configuration or a panicking component panics here.
func (s *Simulation) RunSequential(end sim.Time) *sim.Scheduler {
	res, err := s.sequential(end, RunOptions{})
	if err != nil {
		panic("orch: " + err.Error())
	}
	return res.Scheds[0]
}

// RunCoupled executes the simulation with one runner (goroutine +
// scheduler) per component, synchronized through SplitSim channels — the
// per-component placement. The run is bit-identical to RunSequential.
func (s *Simulation) RunCoupled(end sim.Time) error {
	return s.RunParallel(end, decomp.PerComponent(len(s.comps)))
}

// RunParallel executes the simulation conservatively under the given
// placement. Simulations with remote connections may use any placement; the
// remote channels stay synchronized regardless.
func (s *Simulation) RunParallel(end sim.Time, p decomp.Placement) error {
	_, err := s.execute(end, p, RunOptions{})
	return err
}

// CheckpointSequential runs the simulation sequentially from time zero to
// at and captures a checkpoint there; restore it into a freshly built,
// identically configured Simulation.
func (s *Simulation) CheckpointSequential(at sim.Time) (*Checkpoint, error) {
	res, err := s.sequential(at, RunOptions{Capture: true})
	return res.Checkpoint, err
}

// ResumeSequential restores ck into this freshly built simulation and runs
// it sequentially to end. Returns the scheduler for statistics, like
// RunSequential.
func (s *Simulation) ResumeSequential(ck *Checkpoint, end sim.Time) (*sim.Scheduler, error) {
	res, err := s.sequential(end, RunOptions{Resume: ck})
	if err != nil {
		return nil, err
	}
	return res.Scheds[0], nil
}

// RunParallel executes the plan conservatively. Runner i carries
// GroupNames[i] — experiments and the profiler key profiles by these labels.
func (pl *ExecutionPlan) RunParallel(end sim.Time) error {
	_, err := pl.Execute(end, RunOptions{})
	return err
}

// RunOptimistic executes the plan optimistically from time zero at the
// default speculation ceiling, DefaultSpecWindows, and reports what
// speculation did. The run is bit-identical to Execute's.
//
// Every component must be core.Stateful and no aux state may be attached:
// a plan that breaks the snapshot contract fails with
// core.ErrNotCheckpointable before any event runs, and a plan with remote
// channels with ErrRemoteUnsupported. A group snapshot or an input log
// that fails mid-run (a closure event pending, a payload without a codec or
// pool owner) ends the run with its error.
func (pl *ExecutionPlan) RunOptimistic(end sim.Time) (*SpecReport, error) {
	_, spec, err := pl.run(end, RunOptions{}, DefaultSpecWindows)
	return spec, err
}
