package link

import (
	"repro/internal/sim"
)

// Checkpoint support for the channel fabric. A checkpoint happens only at a
// fully quiesced group run boundary (every runner joined), so none of this
// runs concurrently with the pipes' producers or consumers.

// SetStart records the virtual time a restored run resumes at, lifting the
// endpoint's pre-first-message horizon floor to start + lookahead: both sides
// behave as if a sync at the start time had already been exchanged. Call on
// both endpoints of every channel before the restored run begins.
func (e *Endpoint) SetStart(t sim.Time) { e.start = t }

// DrainResidual consumes every message still bound for the endpoint through
// handle, like the run's own drain, until the peer's end of stream. When a
// group run ends at time T, each runner finishes (final sync at T, output
// closed) as soon as it reaches T, without draining peers' final messages —
// those are the residual. FIFO timestamp monotonicity plus the horizon
// invariant guarantee every residual data message delivers at or after T,
// so handling them from a scheduler sitting at T never schedules into the
// past. A residual message can still have arrived before T and be owed to
// a lagged sink's counters (core.Lagger), which is why every execution
// drains before its end-of-run DiscardPending. In-process peers have closed
// by the time the group run returns; a remote peer's last messages may
// still be in transit, so the drain waits for its end of stream.
func (e *Endpoint) DrainResidual() {
	for {
		m, ok, _ := e.in.recv()
		if !ok {
			return
		}
		e.handle(m)
	}
}

// TxData returns the data messages published on sub-channel sub. Channels
// that share an endpoint each sum their own subs; Stats.TxData is the
// endpoint's total.
func (e *Endpoint) TxData(sub uint16) uint64 {
	if int(sub) >= len(e.subs) {
		return 0
	}
	return e.subs[sub].tx
}

// SetTxData overwrites sub-channel sub's cumulative data-message counter and
// moves the endpoint's total with it; the checkpoint layer restores it so
// ModelGraph message counts carry across a restore. Only TxData round-trips:
// sync and wait counters describe the executor, not the simulation, and
// differ legitimately across placements.
func (e *Endpoint) SetTxData(sub uint16, n uint64) {
	se := e.sub(sub)
	e.Stats.TxData += n - se.tx
	se.tx = n
}

// restartable matches core.Stateful's restored-start method without
// importing core's full interface here.
type restartable interface {
	StartRestored(end sim.Time)
}

// SetRestored switches the runner's next Run into restored mode: components
// get StartRestored (adopt wiring, seed no events) instead of Start,
// because their initial events already ride in the checkpoint.
func (r *Runner) SetRestored(on bool) { r.restored = on }
