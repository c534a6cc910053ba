package link

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Runner executes one simulator "process": it owns a scheduler, the
// components attached to it, and the channel endpoints connecting it to
// peer runners. Runner implements the synchronization loop (see Run):
//
//	drain incoming messages → raise the committed clock to the horizon
//	(min over endpoints of lastPeerClock + lookahead, the lookahead being
//	latency plus the least sink lag) → run local events
//	strictly before it → emit syncs → wait on the limiting endpoint when
//	stuck.
//
// The strict "before the horizon" bound plus per-channel ordering sources
// make a coupled run bit-identical to sequential execution.
type Runner struct {
	name  string
	sched *sim.Scheduler
	eps   []*Endpoint
	comps []core.Component
	end   sim.Time

	// committed is the conservative horizon the run has reached: execution
	// below it is final, syncs are stamped with it, and it only moves
	// forward. Without speculation the scheduler clock equals it after every
	// batch; a speculating runner's scheduler runs ahead of it (spec.go).
	committed sim.Time

	// Cached minimum over the endpoints. horizon depends only on each
	// endpoint's lastRecvT/peerDone, so it stays valid across loop
	// iterations that receive nothing; receiving invalidates it.
	horizonCache sim.Time
	horizonOK    bool

	// lastSyncAll is the virtual time of the last full syncAt pass;
	// repeating the pass at the same time is a no-op on every endpoint and
	// is skipped wholesale.
	lastSyncAll sim.Time

	// restored marks a run resuming from a checkpoint: components start
	// via StartRestored (no initial events) instead of Start. See state.go.
	restored bool

	// epoch anchors the profiler's wall-clock samples: time.Since on a
	// monotonic base is measurably cheaper than time.Now on VMs where the
	// wall clock is a syscall, and the counters only ever need differences.
	// procTick counts message-handling occasions and waitTick blocking
	// occasions; only every profSamplePeriod-th (resp. waitSamplePeriod-th)
	// one is actually timed (see drainAll and awaitLimiting).
	epoch    time.Time
	procTick uint32
	waitTick uint32

	// OnAdvance, if set, is invoked once per loop round, after the round's
	// syncs are out, with the committed clock — never the speculative one.
	// The profiler samples from here (Collector.Attach).
	OnAdvance func(committed sim.Time)

	// spec is the optimistic-execution state (spec.go). Its zero value is
	// conservative execution: speculation depth 0, no leap domain.
	spec specState
}

// NewRunner creates a runner around sched.
func NewRunner(name string, sched *sim.Scheduler) *Runner {
	return &Runner{name: name, sched: sched, lastSyncAll: -1}
}

// Name returns the runner's name.
func (r *Runner) Name() string { return r.name }

// Scheduler returns the runner's scheduler.
func (r *Runner) Scheduler() *sim.Scheduler { return r.sched }

// Endpoints returns the endpoints attached so far.
func (r *Runner) Endpoints() []*Endpoint { return r.eps }

// Components returns the components registered via AddComponent; the
// profiler walks them to aggregate per-runner frame-pool health.
func (r *Runner) Components() []core.Component { return r.comps }

// Attach binds endpoint e to this runner. Each endpoint belongs to exactly
// one runner.
func (r *Runner) Attach(e *Endpoint) {
	if e.runner != nil {
		panic("link: endpoint " + e.label + " already attached")
	}
	e.runner = r
	r.eps = append(r.eps, e)
	r.horizonOK = false
}

// AddComponent registers a component, attaching it to the runner's
// scheduler with the given ordering source. Start is invoked when Run
// begins. Wiring code must assign sources identically across execution
// modes for results to be comparable.
func (r *Runner) AddComponent(c core.Component, src int32) {
	c.Attach(core.Env{Sched: r.sched, Src: src})
	r.comps = append(r.comps, c)
}

// Counters returns the sum of all endpoint counters.
func (r *Runner) Counters() Counters {
	var total Counters
	for _, e := range r.eps {
		total.Add(e.Stats)
	}
	return total
}

// Run executes the runner until virtual time end. It is blocking; Group runs
// many runners concurrently. Events scheduled at exactly end do not execute.
//
// This is the only main loop, whatever the mode. Each round: drain incoming
// messages → roll back if the drain met a straggler → raise committed to
// min(horizon, end) → run the events before it → publish withheld output it
// has passed → refresh the snapshot → speculate up to K windows further →
// sync at committed → finish, go round again while there is headroom, or
// stall. Conservative execution is the K = 0 case outside a leap domain:
// nothing is ever withheld, snapshotted or speculated, so the scheduler
// clock equals committed after every batch.
//
// The horizon alone bounds a batch, so a lock-step channel costs one sync
// exchange per lookahead window. Sync messages never schedule events, so
// how coarsely peers hear from each other changes wall time only, never
// simulation content.
func (r *Runner) Run(end sim.Time) {
	st := &r.spec
	r.startComponents(end)
	r.committed = r.sched.Now()
	if st.k > 0 {
		r.specSnapshot()
	}
	for {
		r.lowerFloor()
		r.drainAll()
		if st.rollbackPending {
			r.specRollback()
		}
		// A GVT leap may have left committed above both bounds.
		advanced := false
		if target := min(r.horizon(), end); target > r.committed {
			r.committed = target
			advanced = true
		}
		if r.committed > r.sched.Now() || r.runnableBefore(r.committed) {
			r.sched.RunBefore(r.committed)
		}
		r.releaseWithheld()
		if st.k > 0 && r.sched.MaxExec() < r.committed && r.specDirty() {
			r.specSnapshot()
		}
		if advanced {
			r.specCommitTick()
		}
		r.speculate()
		r.syncAt(r.committed)
		if r.OnAdvance != nil {
			r.OnAdvance(r.committed)
		}
		if r.committed >= end {
			// This runner will never publish data again: lift its floor to
			// infinity so stalled peers' GVT leaps are not capped by a stale
			// promise from a goroutine that has already returned. Nothing
			// speculative is live either, so residual input (DrainResidual)
			// needs no replay log.
			r.storeFloor(sim.Infinity)
			r.specDisarm()
			for _, e := range r.eps {
				e.finish(end)
			}
			return
		}
		// No second drain here: new messages can only have been published
		// while this goroutine was off the processor, so the event batch we
		// just ran cannot have grown the queues. If something did slip in
		// from a truly concurrent peer, the stall's opening tryRecv sees it
		// and returns without parking.
		if r.horizon() > r.committed {
			continue // more headroom appeared; keep running
		}
		r.stall()
	}
}

// startComponents opens a run to end: it anchors the profiling epoch and
// starts every component — through StartRestored when the run resumes from
// a checkpoint, whose events already carry what Start would seed.
func (r *Runner) startComponents(end sim.Time) {
	r.end = end
	r.epoch = time.Now()
	for _, c := range r.comps {
		if r.restored {
			rs, ok := c.(restartable)
			if !ok {
				panic("link: restored run with non-restorable component " + c.Name())
			}
			rs.StartRestored(end)
			continue
		}
		c.Start(end)
	}
}

// runnableBefore reports whether a local event exists strictly before t.
func (r *Runner) runnableBefore(t sim.Time) bool {
	at, ok := r.sched.PeekTime()
	return ok && at < t
}

// horizon is the minimum over endpoints of how far this runner may advance.
// The minimum is cached; receiving a message or losing a peer invalidates
// it, so loop iterations that process no messages skip the scan.
func (r *Runner) horizon() sim.Time {
	if r.horizonOK {
		return r.horizonCache
	}
	h := sim.Infinity
	for _, e := range r.eps {
		if eh := e.horizon(); eh < h {
			h = eh
		}
	}
	r.horizonCache = h
	r.horizonOK = true
	return h
}

// syncAt emits a sync stamped t on every endpoint that has not yet sent at
// t, then publishes everything staged this pass. The loop stamps its
// committed clock, never the speculative one. After one full pass at t every
// endpoint's lastSentT is >= t, so a repeat pass at the same time stages
// nothing — but the flush still runs, because events executed since the last
// pass may have staged data sends at an unchanged virtual time.
func (r *Runner) syncAt(t sim.Time) {
	if t != r.lastSyncAll {
		r.lastSyncAll = t
		for _, e := range r.eps {
			e.sendSync(t)
			e.out.flush()
		}
		return
	}
	r.flushAll()
}

// flushAll publishes every endpoint's staged outgoing messages. This is the
// send-side batch-publication point: N sends during a scheduler pass cost
// one atomic publish and at most one consumer wakeup per endpoint. Runs
// after each event batch (syncAt), at finish (via close), and before
// blocking, so a peer can never be left waiting on a staged message while
// this runner sleeps.
func (r *Runner) flushAll() {
	for _, e := range r.eps {
		e.out.flush()
	}
}

// profSamplePeriod is the sampling stride for the always-on ProcNanos
// accounting: one batch in profSamplePeriod is wall-clock timed and the
// measurement scaled up by the stride. Reading the monotonic clock is a
// syscall on many virtualized hosts, and two reads around every (often
// single-message) batch was itself a top profile entry; the sampled
// counters converge on the true totals while the hot path pays a clock
// pair only once per stride. WaitNanos samples at a shorter stride:
// blocked time is the profiler's primary bottleneck signal and individual
// waits have higher variance than batch-handling times, so it trades less
// of its accuracy away.
const (
	profSamplePeriod = 8 // power of two
	waitSamplePeriod = 4 // power of two
)

// drainAll consumes every already-queued incoming message on every endpoint
// without blocking, through Endpoint.handle. Each endpoint's queue is handled
// in place as one batch (pipe.drain) — one atomic acquire and at most one
// wall-clock sample pair per batch rather than per message — which is what
// keeps per-message fabric overhead low enough for decomposition to pay off.
func (r *Runner) drainAll() {
	for _, e := range r.eps {
		if e.in.empty() {
			// Nothing published; all that can remain is end-of-stream (the
			// drain call re-checks under the close/publish race).
			if !e.peerDone {
				if _, closed := e.in.drain(e.handle); closed {
					e.peerDone = true
					r.horizonOK = false
				}
			}
			continue
		}
		r.procTick++
		if r.procTick&(profSamplePeriod-1) == 0 {
			start := time.Since(r.epoch)
			e.in.drain(e.handle)
			e.Stats.ProcNanos += uint64(time.Since(r.epoch)-start) * profSamplePeriod
		} else {
			e.in.drain(e.handle)
		}
		// The ring tracks the deepest backlog the peer ever built against
		// us; snapshot it from the consumer side where Stats is owned.
		e.Stats.PeakDepth = e.in.peakDepth()
	}
}

// stall is what a round with no headroom left ends in: publish everything
// staged — peers must see every message we have produced before we sleep on
// them — then, inside a leap domain, advertise the raised floor and try a
// GVT leap; failing that, wait for the limiting endpoint's next message and
// handle it. The floor is raised only here, after everything runnable has
// run, and lowered again before the message that ends the wait is consumed,
// so a concurrent leap reader never trusts a stale promise.
func (r *Runner) stall() {
	r.flushAll()
	if dom := r.spec.dom; dom != nil {
		r.storeFloor(r.specFloor(true))
		if dom.tryLeap(r) {
			return
		}
	}
	e, m, ok := r.awaitLimiting()
	r.lowerFloor()
	if ok {
		r.handleSampled(e, m)
	}
}

// awaitLimiting waits for a message on the endpoint with the smallest
// horizon, charging the blocked wall time to that endpoint's wait counter.
// ok is false when the peer closed instead (recorded on the endpoint). The
// wait itself is the pipe's yield-then-park (recv); the endpoint's Parks
// counter snapshots how many waits ended in a park.
func (r *Runner) awaitLimiting() (limiting *Endpoint, m Message, ok bool) {
	h := sim.Infinity
	for _, e := range r.eps {
		if eh := e.horizon(); eh < h {
			h = eh
			limiting = e
		}
	}
	if limiting == nil {
		panic("link: runner " + r.name + " blocked with no endpoints")
	}
	m, ok, closed := limiting.in.tryRecv()
	if !ok && !closed {
		// We are actually going to wait. Like ProcNanos, the wait counter
		// is sampled: one block in waitSamplePeriod is timed and scaled.
		// An immediately available message (the branch above) waited ~0
		// and records 0 without touching the clock at all.
		r.waitTick++
		var start time.Duration
		sampled := r.waitTick&(waitSamplePeriod-1) == 0
		if sampled {
			start = time.Since(r.epoch)
		}
		m, ok, _ = limiting.in.recv()
		if sampled {
			limiting.Stats.WaitNanos += uint64(time.Since(r.epoch)-start) * waitSamplePeriod
		}
		limiting.Stats.Parks = limiting.in.parks
	}
	if !ok {
		limiting.peerDone = true
		r.horizonOK = false
	}
	return limiting, m, ok
}

// handleSampled handles the message a stall woke up on, charging — like the
// drain path — the handling time to the endpoint's proc counter, so
// wait-time profiles do not silently lose the wakeup message's work.
func (r *Runner) handleSampled(e *Endpoint, m Message) {
	r.procTick++
	if r.procTick&(profSamplePeriod-1) == 0 {
		start := time.Since(r.epoch)
		e.handle(m)
		e.Stats.ProcNanos += uint64(time.Since(r.epoch)-start) * profSamplePeriod
	} else {
		e.handle(m)
	}
}

// Group runs a set of coupled runners to a common end time.
type Group struct {
	Runners []*Runner
}

// Add appends runners to the group.
func (g *Group) Add(rs ...*Runner) { g.Runners = append(g.Runners, rs...) }

// Run starts every runner in its own goroutine and waits for all of them.
// Runners are plain goroutines in every mode — thread placement is the Go
// scheduler's — so a blocked runner's yield (pipe.recv) is a cheap
// goroutine switch that lets a peer sharing its P publish, not an OS-thread
// hand-off. A panic in any runner is captured and returned as an error
// after the remaining runners are unblocked by their peers' closed pipes; a
// panic value that is an error stays matchable with errors.Is.
func (g *Group) Run(end sim.Time) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.Runners))
	for i, r := range g.Runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if err, ok := p.(error); ok {
						errs[i] = fmt.Errorf("runner %s: %w", r.name, err)
					} else {
						errs[i] = fmt.Errorf("runner %s: %v", r.name, p)
					}
					// Unblock peers waiting on us.
					for _, e := range r.eps {
						func() {
							defer func() { recover() }()
							e.out.close()
						}()
					}
				}
			}()
			r.Run(end)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
