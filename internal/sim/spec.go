package sim

import "fmt"

// This file is the scheduler half of optimistic execution: a cheap in-memory
// restore point (Mark + ExportPending into a caller-recycled buffer)
// and the two ways of moving the clock backwards safely. Unlike the
// checkpoint path in state.go, nothing here canonicalizes or serializes —
// records keep their live Sink pointers and exact sequence numbers, so a
// restore rebuilds the queue bit-identically to the captured one and
// re-execution from the restore point replays the same event order.

// Mark is a lightweight scheduler restore point: the scalar registers that,
// together with the pending-event set and component state, determine future
// execution. It deliberately excludes the side-table layout — restore
// rebuilds that from the event records.
type Mark struct {
	Now     Time
	Seq     uint64
	Done    uint64
	MaxExec Time
}

// CaptureMark snapshots the scheduler's scalar state.
func (s *Scheduler) CaptureMark() Mark {
	return Mark{Now: s.now, Seq: s.seq, Done: s.done, MaxExec: s.maxExec}
}

// MaxExec returns the timestamp of the latest executed event (-1 if none).
// The optimistic executor compares arriving message timestamps against it:
// anything at or below MaxExec is a straggler requiring rollback.
func (s *Scheduler) MaxExec() Time { return s.maxExec }

// Rewind retracts the speculative part of the clock: it moves Now back to t
// without touching any state, which is legal exactly when no event at or
// after t has executed (t > MaxExec). RunBefore(limit) advances Now to limit
// even when the window's tail was empty; Rewind undoes that advance so a
// message for time t can still be posted. Rewinding over executed history is
// a logic bug in the caller's straggler detection and panics.
func (s *Scheduler) Rewind(t Time) {
	if t >= s.now {
		return
	}
	if t <= s.maxExec {
		panic(fmt.Sprintf("sim: Rewind(%v) over executed history (maxExec %v)", t, s.maxExec))
	}
	s.now = t
}

// RestoreMark resets the scheduler's scalar registers to a captured Mark.
// The queue must already be empty (DiscardPending); RestorePending rebuilds
// it afterwards. Restoring the Seq register is what keeps replayed execution
// bit-identical: events re-posted after the restore draw the same sequence
// numbers they drew the first time.
func (s *Scheduler) RestoreMark(m Mark) {
	if s.Pending() != 0 {
		panic("sim: RestoreMark on a scheduler with queued events")
	}
	s.now = m.Now
	s.seq = m.Seq
	s.done = m.Done
	s.maxExec = m.MaxExec
}

// RestorePending rebuilds the event queue from exported records, preserving
// each record's exact (At, Src, Seq) ordering key — unlike the checkpoint
// restore path, which re-posts under fresh sequence numbers after a
// canonical sort. The queue must be empty and the scheduler's registers
// already restored (RestoreMark), so every record's Seq is below the Seq
// register and At is not before Now. Named handlers resolve by name against
// this scheduler's registry; an unknown name reports an error naming it.
// Deliveries that a lane held when exported come back as plain deliveries
// with the same keys, so they run in the same order.
func (s *Scheduler) RestorePending(evs []PendingEvent) error {
	if s.Pending() != 0 {
		panic("sim: RestorePending on a scheduler with queued events")
	}
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case PendingDelivery:
			s.pushDelivery(ev.At, ev.Src, ev.Seq, ev.Sink, ev.Payload)
		case PendingNamed:
			h, ok := s.namedIdx[ev.Handler]
			if !ok {
				return fmt.Errorf("sim: restore of named event %q: handler not registered", ev.Handler)
			}
			s.namedEvts = append(s.namedEvts, namedEvent{h: h, args: ev.Args})
			s.q.Push(eventEntry{at: ev.At, src: ev.Src, seq: ev.Seq, del: -int32(len(s.namedEvts))})
		default:
			return fmt.Errorf("sim: restore of unknown pending-event kind %d", ev.Kind)
		}
	}
	return nil
}
