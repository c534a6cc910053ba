package link

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Optimistic execution: the steps of Runner.Run that do something only once
// SetSpec has armed them. A speculating runner keeps two clocks: committed —
// the conservative horizon, below which execution is final — and the
// scheduler's actual clock, which may run up to K sync windows ahead.
// Everything that could leak speculation out of the group is fenced:
//
//   - Outgoing data messages stamped at or after committed are withheld in a
//     per-endpoint staging buffer and published only once committed passes
//     their timestamp, so peers never observe state that might roll back.
//   - Incoming data messages are appended to a per-endpoint input log (with
//     pooled payloads deep-copied through the snap codec, since the original
//     is consumed by delivery); a rollback replays the log so no delivery is
//     lost, and the log order makes replayed event order bit-identical.
//   - A message whose delivery time is at or below the scheduler's executed
//     watermark (MaxExec) is a straggler: the group — and only the group —
//     rolls back to its last committed snapshot and re-executes. Re-sends of
//     already-published messages are deduplicated by count against a
//     publish oracle that also cross-checks (time, sub) for divergence.
//
// Orthogonally, every runner of a SpecDomain (speculating or not) takes part
// in GVT-style committed-horizon tracking: at a stall it advertises a floor —
// the earliest virtual time at which it could ever publish a new message —
// through a seq-cst atomic, and a stalled runner that observes every
// cross-group edge empty may leap its committed clock to
// min(floors) + its minimum inbound lookahead, far past the per-hop ladder.
// That collapses the empty-window sync ladders that dominate
// latency-sparse graphs, costs nothing when traffic is dense (any
// in-flight message vetoes the leap), and never needs rollback.

// SpecCounters aggregates a runner's speculation activity. All fields are
// written only by the owning runner goroutine; read them after the run, or
// from that goroutine (the profiler's OnAdvance sampling qualifies).
type SpecCounters struct {
	Snapshots   uint64 `json:"snap"`   // committed-state snapshots taken
	Rollbacks   uint64 `json:"roll"`   // straggler-triggered restores
	Leaps       uint64 `json:"leap"`   // GVT leaps past the conservative horizon
	Replayed    uint64 `json:"replay"` // input-log deliveries re-posted after rollbacks
	WastedNanos uint64 `json:"wasted"` // wall nanos of speculative execution discarded by rollbacks
}

// SpecControl configures one runner's optimistic execution; the orchestrator
// builds it per placement group and installs it with SetSpec before Run.
type SpecControl struct {
	// MaxWindows is K: how many sync windows past the committed horizon the
	// group may speculate. 0 disables speculation; the runner still takes
	// part in its domain's GVT leaping.
	MaxWindows int
	// Snapshot captures the group's committed state (component state via
	// core.Stateful, scheduler mark + pending events) into recycled buffers;
	// Restore rebuilds exactly that state. Both are orchestrator closures —
	// the fabric only decides when to call them. nil when MaxWindows is 0.
	Snapshot func() error
	Restore  func() error
	// Reason, when non-empty, marks the group conservative by construction
	// (a member component is not core.Stateful, aux state is attached, ...):
	// MaxWindows is forced to 0 and the reason surfaces in reports.
	Reason string
}

const (
	// specRecoverStreak is how many consecutive clean horizon commits earn
	// back one doubling of an adaptively lowered K.
	specRecoverStreak = 64
	// specSamplePeriod is the sampling stride for timing speculative
	// batches, mirroring profSamplePeriod's reasoning.
	specSamplePeriod = 8 // power of two
)

// specState is the per-runner half of optimistic execution. The zero value
// is a conservative runner: depth 0, no snapshot, no domain.
type specState struct {
	ctl *SpecControl // nil until SetSpec
	dom *SpecDomain  // nil outside a leap domain

	// withhold marks a group that may speculate: outgoing data is staged on
	// the endpoint until committed passes its stamp (see Endpoint.SendSub).
	withhold bool

	k int // current speculation depth (adaptive, <= ctl.MaxWindows)
	// minInLat, the minimum lookahead over endpoints (latency plus the
	// least sink lag), is both the speculation window unit and the leap
	// increment; Infinity on an endpoint-less runner, which never
	// speculates.
	minInLat sim.Time

	snapValid bool
	snapDone  uint64 // Processed() at the snapshot

	// demoteReason, once non-empty, pins the runner conservative for good
	// (SpecControl.Reason, snapshot or input-log failure).
	demoteReason string

	rollbackPending bool
	cleanStreak     int
	specTick        uint32
	specNanos       uint64 // sampled wall nanos speculated since the snapshot

	// floor is the GVT contribution: the earliest virtual time this runner
	// could ever publish a new message at, given no new input. Lowered (to
	// committed) before consuming input, raised at a stall. Seq-cst via
	// atomic so a peer's leap read pairs with the edge-counter reads.
	floor   atomic.Int64
	scratch []uint64 // per-runner GVT read buffer, len = domain edge count

	counters SpecCounters
}

// specOut is one staged (or, payload-less, one published) outgoing message.
type specOut struct {
	T       sim.Time
	Hold    sim.Time
	Sub     uint16
	Payload core.Message
}

// specIn is one logged incoming message. Pooled (core.Releaser) payloads are
// deep-copied into the endpoint's log buffer at [off, off+n) and re-minted
// at replay; plain payloads are logged by reference, relying on the fabric's
// standing contract that messages are immutable after send.
type specIn struct {
	T       sim.Time
	Hold    sim.Time
	Sub     uint16
	Payload core.Message
	off, n  int32
	enc     bool
}

// epSpec is the per-endpoint half of optimistic execution; like specState,
// its zero value is what a conservative endpoint carries.
type epSpec struct {
	withheld []specOut
	log      []specIn
	logBuf   snap.Encoder

	// pubLog records (T, Sub) of every data message published since the
	// snapshot; after a rollback the first dropLeft re-sends are dropped as
	// duplicates, each cross-checked against its pubLog entry so silent
	// replay divergence panics instead of corrupting a peer.
	pubLog   []specOut
	dropLeft int

	snapTxData uint64
	snapRxData uint64

	// Inside a leap domain, tx counts data messages this endpoint has staged
	// into its outgoing pipe; rx counts data messages handled from the
	// incoming one. A GVT leap reads rx before tx on every edge: observing
	// them equal proves the edge held no data at the tx-read instant. Syncs
	// are exempt — they never create events, so they cannot invalidate a
	// leap.
	tx atomic.Uint64
	rx atomic.Uint64
}

// SetSpec arms optimistic execution on the runner. Endpoints must already be
// attached; call once, before Run.
func (r *Runner) SetSpec(ctl *SpecControl) {
	st := &r.spec
	st.ctl = ctl
	st.k = ctl.MaxWindows
	if ctl.Reason != "" {
		st.k = 0
		st.demoteReason = ctl.Reason
	}
	st.withhold = st.k > 0
	st.minInLat = sim.Infinity
	for _, e := range r.eps {
		st.minInLat = min(st.minInLat, e.lookahead)
	}
}

// SetSpecOwner records the component owning the sink behind sub, so logged
// pooled payloads can re-mint from its pool at replay.
func (e *Endpoint) SetSpecOwner(sub uint16, owner core.Component) { e.sub(sub).owner = owner }

// SpecStats returns the runner's speculation counters, the reason it runs
// conservatively ("" when speculative), and whether SetSpec armed it.
func (r *Runner) SpecStats() (SpecCounters, string, bool) {
	return r.spec.counters, r.spec.demoteReason, r.spec.ctl != nil
}

// SpecDomain is the set of runners sharing a GVT: all groups of one
// optimistic run. Construct after SetSpec on every runner.
type SpecDomain struct {
	runners []*Runner
	// cons[i]/pubs[i] are the consumer/producer counters of directed edge i
	// (each endpoint's incoming pipe, produced by its peer).
	cons []*atomic.Uint64
	pubs []*atomic.Uint64
}

// NewSpecDomain wires the runners into one leap domain.
func NewSpecDomain(runners []*Runner) *SpecDomain {
	d := &SpecDomain{runners: runners}
	for _, r := range runners {
		if r.spec.ctl == nil {
			panic("link: NewSpecDomain with runner " + r.name + " missing SetSpec")
		}
		for _, e := range r.eps {
			if e.peer.runner == nil || e.peer.runner.spec.ctl == nil {
				panic("link: NewSpecDomain with endpoint " + e.peer.label + " outside the domain")
			}
			d.cons = append(d.cons, &e.spec.rx)
			d.pubs = append(d.pubs, &e.peer.spec.tx)
		}
	}
	for _, r := range runners {
		r.spec.dom = d
		r.spec.scratch = make([]uint64, len(d.cons))
	}
	return d
}

// tryLeap attempts a GVT leap for r: if every cross-group edge is observably
// empty, committed jumps to min(all floors) + r's minimum inbound lookahead.
// The read sequence is a two-cut snapshot: every consumer counter, then every
// producer counter (a mismatch means data was in flight, or consumed
// concurrently — either voids the emptiness proof), then every floor, then
// every producer counter again. The confirmation pass closes the cut: a
// message published between the first producer read and a floor read is
// bounded by neither — its sender may have parked and raised its floor after
// sending — but it moves the producer counter, so re-reading vetoes the
// attempt. With both passes equal, every message not yet absorbed when the
// cut opened was published after it closed, and each runner's future sends
// are bounded by the floor value actually read: pending work and staged
// output sit at or above the floor when it is stored, and input consumed
// later delivers at or above the sender's committed clock, which the floor
// never exceeds. min(floors) is therefore a true global lower bound on every
// future delivery, and adding r's minimum inbound lookahead (latency plus
// the receiving sink's lag) keeps it one.
func (d *SpecDomain) tryLeap(r *Runner) bool {
	st := &r.spec
	for i, c := range d.cons {
		st.scratch[i] = c.Load()
	}
	for i, p := range d.pubs {
		if p.Load() != st.scratch[i] {
			return false // data in flight (or consumed concurrently): no proof
		}
	}
	gvt := sim.Infinity
	for _, rr := range d.runners {
		if f := sim.Time(rr.spec.floor.Load()); f < gvt {
			gvt = f
		}
	}
	for i, p := range d.pubs {
		if p.Load() != st.scratch[i] {
			return false // published inside the cut: floors may not bound it
		}
	}
	target := r.end
	if gvt < r.end {
		target = min(gvt+st.minInLat, r.end)
	}
	if target <= r.committed {
		return false
	}
	r.committed = target
	st.counters.Leaps++
	return true
}

// specFloor returns the earliest virtual time this runner could publish a
// new data message at: the head of its pending events and of its withheld
// output, clamped against committed in the direction the caller needs. The
// heads have to be scanned, rather than committed advertised, because a GVT
// leap can raise committed past still-unexecuted pending events, whose sends
// (and already-staged withheld output) then carry stamps below it.
//
//   - Before consuming input (stalled false) the floor may not exceed
//     committed — future input delivers at or above it (handle enforces
//     that), so it bounds whatever that input makes us send — and in the
//     round after a leap those leftovers pull it lower. In every other round
//     the result is committed exactly.
//   - At a stall (stalled true) everything before committed has run and been
//     released — a leap's leftovers included, one round earlier — so the
//     floor rises to the earliest head; the clamp holds it at committed
//     should that ever not be so.
func (r *Runner) specFloor(stalled bool) sim.Time {
	f := sim.Infinity
	if t, ok := r.sched.PeekTime(); ok {
		f = t
	}
	for _, e := range r.eps {
		if w := e.spec.withheld; len(w) > 0 {
			f = min(f, w[0].T)
		}
	}
	if stalled {
		return max(f, r.committed)
	}
	return min(f, r.committed)
}

// lowerFloor advertises the pre-input floor to the runner's leap domain;
// outside a domain nobody reads it and the scan is skipped.
func (r *Runner) lowerFloor() {
	if r.spec.dom != nil {
		r.storeFloor(r.specFloor(false))
	}
}

func (r *Runner) storeFloor(f sim.Time) { r.spec.floor.Store(int64(f)) }

// speculate runs events past committed, up to K windows and never past the
// end of the run, only while a valid snapshot exists to roll back to.
func (r *Runner) speculate() {
	st := &r.spec
	if st.k <= 0 || !st.snapValid || st.minInLat == sim.Infinity {
		return
	}
	cap := min(r.committed+sim.Time(st.k)*st.minInLat, r.end)
	if cap <= r.committed || (cap <= r.sched.Now() && !r.runnableBefore(cap)) {
		return
	}
	st.specTick++
	if st.specTick&(specSamplePeriod-1) == 0 {
		start := time.Since(r.epoch)
		r.sched.RunBefore(cap)
		st.specNanos += uint64(time.Since(r.epoch)-start) * specSamplePeriod
	} else {
		r.sched.RunBefore(cap)
	}
}

// specDirty reports whether the committed state has moved past the snapshot.
func (r *Runner) specDirty() bool {
	st := &r.spec
	if !st.snapValid {
		return true
	}
	if r.sched.Processed() != st.snapDone {
		return true
	}
	for _, e := range r.eps {
		if len(e.spec.log) > 0 {
			return true
		}
	}
	return false
}

// specSnapshot refreshes the committed restore point. Callers guarantee a
// quiet scheduler (MaxExec < committed: nothing speculative has executed);
// the speculative clock advance, if any, is rewound so the capture sits
// exactly at the committed horizon. Failure (closure events in the queue, an
// unregistered payload codec) demotes the runner to conservative execution
// instead of failing the run.
func (r *Runner) specSnapshot() {
	st := &r.spec
	for _, e := range r.eps {
		if e.spec.dropLeft != 0 {
			panic(fmt.Sprintf("link: %s snapshot with %d unmatched replay re-sends", e.label, e.spec.dropLeft))
		}
	}
	r.sched.Rewind(r.committed)
	if err := st.ctl.Snapshot(); err != nil {
		r.specDemote("snapshot failed: " + err.Error())
		return
	}
	st.snapValid = true
	st.snapDone = r.sched.Processed()
	st.specNanos = 0
	for _, e := range r.eps {
		sp := &e.spec
		sp.snapTxData = e.Stats.TxData
		sp.snapRxData = e.Stats.RxData
		sp.log = sp.log[:0]
		sp.logBuf.Reset()
		sp.pubLog = sp.pubLog[:0]
	}
	st.counters.Snapshots++
}

// specDemote permanently disables speculation for the runner, recording why.
// Only legal at points where no uncommitted execution is live (initial
// snapshot, quiet-point refresh, or immediately after a rollback), which
// every call site guarantees.
func (r *Runner) specDemote(reason string) {
	st := &r.spec
	if st.demoteReason == "" {
		st.demoteReason = reason
	}
	st.k = 0
	r.specDisarm()
}

// specDisarm drops the rollback apparatus after speculation stops (adaptive
// K reaching 0, or demotion): no rollback can be needed once execution stays
// below committed, so the logs only waste memory. Withheld staging and the
// dedup window (dropLeft/pubLog) stay live — in-flight replay dedup must
// still complete.
func (r *Runner) specDisarm() {
	r.spec.snapValid = false
	for _, e := range r.eps {
		e.spec.log = e.spec.log[:0]
		e.spec.logBuf.Reset()
	}
}

// specCommitTick rewards a clean horizon commit: after specRecoverStreak of
// them in a row, an adaptively lowered K earns one doubling back.
func (r *Runner) specCommitTick() {
	st := &r.spec
	if st.ctl == nil || st.demoteReason != "" || st.k >= st.ctl.MaxWindows {
		return
	}
	st.cleanStreak++
	if st.cleanStreak < specRecoverStreak {
		return
	}
	st.cleanStreak = 0
	if st.k == 0 {
		st.k = 1
	} else if st.k *= 2; st.k > st.ctl.MaxWindows {
		st.k = st.ctl.MaxWindows
	}
}

// specRollback restores the group to its last committed snapshot after a
// straggler: discard speculative output and pending events, rebuild
// component and scheduler state, arm re-send dedup, and replay the input
// log. The straggler itself was logged, so it replays too.
func (r *Runner) specRollback() {
	st := &r.spec
	if !st.snapValid {
		panic("link: runner " + r.name + " rollback without a valid snapshot")
	}
	st.rollbackPending = false
	st.counters.Rollbacks++
	st.counters.WastedNanos += st.specNanos
	st.specNanos = 0
	for _, e := range r.eps {
		sp := &e.spec
		for i := range sp.withheld {
			core.ReleaseMessage(sp.withheld[i].Payload)
			sp.withheld[i].Payload = nil
		}
		sp.withheld = sp.withheld[:0]
	}
	r.sched.DiscardPending(core.ReleaseMessage)
	if err := st.ctl.Restore(); err != nil {
		panic("link: runner " + r.name + " rollback restore failed: " + err.Error())
	}
	for _, e := range r.eps {
		sp := &e.spec
		e.Stats.TxData = sp.snapTxData
		e.Stats.RxData = sp.snapRxData
		sp.dropLeft = len(sp.pubLog)
		for i := range sp.log {
			rec := &sp.log[i]
			se := &e.subs[rec.Sub]
			payload := rec.Payload
			if rec.enc {
				dec := snap.NewDecoder(sp.logBuf.Bytes()[rec.off : rec.off+rec.n])
				p, err := core.DecodePayload(dec, se.owner)
				if err != nil {
					panic(fmt.Sprintf("link: %s replay decode: %v", e.label, err))
				}
				payload = p
			}
			r.sched.PostDelivery(deliverAt(rec.T, rec.Hold, e.ch.Latency, se.lag), se.src, se.sink, payload)
			e.Stats.RxData += msgCount(payload)
			st.counters.Replayed++
		}
	}
	st.cleanStreak = 0
	st.k /= 2
	if st.k == 0 {
		r.specDisarm()
	}
}

// logInput appends one incoming data message to the endpoint's replay log;
// only called while the runner holds a valid snapshot. The delivery consumes
// a pooled payload, so the log takes a deep copy of it. If the payload has
// no codec (or no pool owner to re-mint from), speculation cannot continue
// safely: fall back to the committed snapshot now — the log up to here
// replays — and run conservatively from it, leaving this message to be
// delivered on committed state where it never needs replaying.
func (e *Endpoint) logInput(m Message) {
	sp := &e.spec
	if _, pooled := m.Payload.(core.Releaser); !pooled {
		sp.log = append(sp.log, specIn{T: m.T, Hold: m.Hold, Sub: m.Sub, Payload: m.Payload})
		return
	}
	off := sp.logBuf.Len()
	var err error
	if owner := e.subs[m.Sub].owner; owner == nil {
		err = fmt.Errorf("%w: no pool owner for sub %d", core.ErrUnknownSink, m.Sub)
	} else {
		err = core.EncodePayload(&sp.logBuf, m.Payload)
	}
	if err != nil {
		e.runner.specRollback()
		e.runner.specDemote("input not loggable: " + err.Error())
		return
	}
	sp.log = append(sp.log, specIn{T: m.T, Hold: m.Hold, Sub: m.Sub,
		off: int32(off), n: int32(sp.logBuf.Len() - off), enc: true})
}

// releaseWithheld publishes, on every endpoint, the prefix of the withheld
// buffer that committed has passed. The buffer is time-ordered by
// construction: entries are appended in execution order with nondecreasing
// stamps (a rollback clears it wholesale), so the release is a prefix drain,
// no sort. After a rollback the first dropLeft publishes are re-sends of
// already-published messages: they are dropped, each verified against the
// publish oracle.
func (r *Runner) releaseWithheld() {
	if !r.spec.withhold {
		return
	}
	for _, e := range r.eps {
		sp := &e.spec
		n := 0
		for n < len(sp.withheld) && sp.withheld[n].T < r.committed {
			n++
		}
		for i := 0; i < n; i++ {
			m := &sp.withheld[i]
			if sp.dropLeft > 0 {
				want := sp.pubLog[len(sp.pubLog)-sp.dropLeft]
				if want.T != m.T || want.Sub != m.Sub {
					panic(fmt.Sprintf("link: %s replay divergence: re-send (%v, sub %d) != published (%v, sub %d)",
						e.label, m.T, m.Sub, want.T, want.Sub))
				}
				sp.dropLeft--
				core.ReleaseMessage(m.Payload)
				continue
			}
			if r.spec.snapValid {
				sp.pubLog = append(sp.pubLog, specOut{T: m.T, Sub: m.Sub})
			}
			e.publish(m.T, m.Hold, m.Sub, m.Payload, msgCount(m.Payload))
		}
		if n > 0 {
			rest := copy(sp.withheld, sp.withheld[n:])
			clear(sp.withheld[rest:])
			sp.withheld = sp.withheld[:rest]
		}
	}
}
