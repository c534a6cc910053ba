package orch

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Deterministic checkpoint/restore at sync horizons.
//
// A checkpoint is Execute's capture phase (RunOptions.Capture), restoring
// one its restore phase (RunOptions.Resume). The capture is taken at a
// quiesced group-run boundary: every runner has
// reached virtual time T and joined, every channel pipe has been drained of
// its residual final-window messages (FIFO timestamps plus the horizon
// invariant guarantee those deliver at or after T), and all state is
// therefore owned by exactly one goroutine. The capture then serializes
//
//   - every component's explicit state (core.Stateful),
//   - every auxiliary state holder (core.AuxState, e.g. workload engines),
//   - per-connection data-message counters (so ModelGraph carries across),
//   - and the merged pending-event set of all schedulers, sorted into the
//     canonical placement-invariant (time, source) order with per-scheduler
//     sequence numbers dropped.
//
// Because event records carry sink positions (ordinals in walkSinks'
// registration-order walk, whose length the metadata records) and
// named-handler names rather than pointers, the same checkpoint restores
// into ANY placement of an identically built simulation: the bytes are
// bit-identical no matter which placement or mode produced them, and the
// restored run is bit-identical to the uninterrupted one.
//
// Not captured: remote (cross-process) connections, dynamically created TCP
// flows, and pending closure events — each surfaces a typed error at capture.

// Checkpoint is a restorable snapshot of a simulation at time At.
type Checkpoint struct {
	// At is the virtual time the snapshot was taken at; the restored run
	// resumes here.
	At sim.Time
	// BaseEvents is the total number of scheduler events executed before At.
	// An uninterrupted run's event count equals BaseEvents plus the restored
	// run's count exactly.
	BaseEvents uint64
	// Data is the self-contained serialized snapshot (snap format). It can
	// be written to a file and reloaded with LoadCheckpoint.
	Data []byte
}

// auxEntry is one registered auxiliary state holder.
type auxEntry struct {
	name string
	aux  core.AuxState
}

// AddAuxState registers a non-component state holder (workload engine,
// measurement reservoir) to ride along in checkpoints under a unique name.
// Register in the same order on the capturing and restoring builds.
func (s *Simulation) AddAuxState(name string, a core.AuxState) {
	for _, e := range s.auxs {
		if e.name == name {
			panic("orch: aux state " + name + " registered twice")
		}
	}
	s.auxs = append(s.auxs, auxEntry{name: name, aux: a})
}

// LoadCheckpoint parses a serialized checkpoint (validating its framing and
// checksum) back into a Checkpoint.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	r, err := snap.Open(data)
	if err != nil {
		return nil, err
	}
	mb, err := r.Section("meta")
	if err != nil {
		return nil, err
	}
	d := snap.NewDecoder(mb)
	at := sim.Time(d.I64())
	base := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &Checkpoint{At: at, BaseEvents: base, Data: data}, nil
}

// walkSinks visits every sink the wiring can target, in the order that
// numbers them in a checkpoint: each component's WalkSinks in registration
// order, then both ends of every channel in registration order. The
// order is independent of placement, which keeps checkpoint bytes
// placement-invariant. Every visited sink takes the next position, nil and
// func-typed ones included. A component that is not core.Stateful
// contributes no sinks and is reported as the error once the walk is done.
func (s *Simulation) walkSinks(fn func(sk core.Sink, owner core.Component)) error {
	var err error
	for _, c := range s.comps {
		if st, ok := c.(core.Stateful); ok {
			st.WalkSinks(func(sk core.Sink) { fn(sk, c) })
		} else if err == nil {
			err = fmt.Errorf("%w: component %q does not implement core.Stateful",
				core.ErrNotCheckpointable, c.Name())
		}
	}
	for _, c := range s.chans {
		for x, comp := range c.comp {
			fn(c.sink[x], comp)
		}
	}
	return err
}

// sinkRef is one sink of the walk: the sink, its position (in a
// sinkIndex), and the component owning it, whose frame pool re-mints pooled
// payloads (nil for the out-of-process end of a remote channel).
type sinkRef struct {
	sink  core.Sink
	ord   uint32
	owner core.Component
}

// sinkComparable reports whether sk can key a map — be addressed by
// identity. Nil and func-typed sinks (core.SinkFunc) cannot.
func sinkComparable(sk core.Sink) bool {
	return sk != nil && reflect.TypeOf(sk).Comparable()
}

// sinkIndex maps each comparable sink to its first position in the walk.
type sinkIndex map[core.Sink]sinkRef

// lookup returns sk's entry; ok is false for a sink the walk does not reach
// or that cannot key the index.
func (x sinkIndex) lookup(sk core.Sink) (ref sinkRef, ok bool) {
	if !sinkComparable(sk) {
		return sinkRef{}, false
	}
	ref, ok = x[sk]
	return ref, ok
}

// sinkIndex indexes the walk and returns it with the walk's length. On error
// (a component that is not core.Stateful) the index is still returned,
// complete for every sink the walk reached.
func (s *Simulation) sinkIndex() (sinkIndex, uint32, error) {
	x := make(sinkIndex)
	var n uint32
	err := s.walkSinks(func(sk core.Sink, owner core.Component) {
		if _, seen := x.lookup(sk); !seen && sinkComparable(sk) {
			x[sk] = sinkRef{sink: sk, ord: n, owner: owner}
		}
		n++
	})
	return x, n, err
}

// capture serializes the quiesced simulation at time at. scheds holds every
// scheduler of the finished run, one per group.
func (s *Simulation) capture(scheds []*sim.Scheduler, at sim.Time) (*Checkpoint, error) {
	sinks, nsinks, err := s.sinkIndex()
	if err != nil {
		return nil, err
	}
	var events []sim.PendingEvent
	var base uint64
	for _, sc := range scheds {
		evs, err := sc.ExportPending()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrNotCheckpointable, err)
		}
		events = append(events, evs...)
		base += sc.Processed()
	}
	// Canonical order: (time, source) is placement-invariant; the
	// per-scheduler sequence breaks ties within one (time, source) pair —
	// such ties always come from the same scheduler, so the comparison is
	// well-defined — and is then dropped from the serialized form. Re-posting
	// in this order reassigns fresh sequences that preserve it.
	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})

	w := snap.NewWriter()
	var meta snap.Encoder
	meta.I64(int64(at))
	meta.U64(base)
	meta.U32(uint32(len(s.comps)))
	for _, c := range s.comps {
		meta.String(c.Name())
	}
	meta.U32(uint32(len(s.auxs)))
	for _, a := range s.auxs {
		meta.String(a.name)
	}
	meta.U32(nsinks)
	if err := w.Section("meta", meta.Bytes()); err != nil {
		return nil, err
	}

	var ev snap.Encoder
	ev.U32(uint32(len(events)))
	for i := range events {
		e := &events[i]
		ev.I64(int64(e.At))
		ev.U32(uint32(e.Src))
		ev.U8(e.Kind)
		switch e.Kind {
		case sim.PendingNamed:
			ev.String(e.Handler)
			ev.U64(e.Args[0])
			ev.U64(e.Args[1])
			ev.U64(e.Args[2])
		case sim.PendingDelivery:
			ref, ok := sinks.lookup(e.Sink)
			if !ok {
				return nil, fmt.Errorf("%w: %T (delivery at %v)", core.ErrUnknownSink, e.Sink, e.At)
			}
			ev.U32(ref.ord)
			if err := core.EncodePayload(&ev, e.Payload); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("orch: unknown pending event kind %d", e.Kind)
		}
	}
	if err := w.Section("events", ev.Bytes()); err != nil {
		return nil, err
	}

	// Per-end data-message totals of every local channel: ModelGraph reads
	// them.
	var cn snap.Encoder
	local := s.localChans()
	cn.U32(uint32(len(local)))
	for _, c := range local {
		a, b := c.txData()
		cn.U64(a)
		cn.U64(b)
	}
	if err := w.Section("conns", cn.Bytes()); err != nil {
		return nil, err
	}

	for _, c := range s.comps {
		var enc snap.Encoder
		if err := c.(core.Stateful).SnapshotState(&enc); err != nil {
			return nil, err
		}
		if err := w.Section("comp/"+c.Name(), enc.Bytes()); err != nil {
			return nil, err
		}
	}
	for _, a := range s.auxs {
		var enc snap.Encoder
		if err := a.aux.SnapshotState(&enc); err != nil {
			return nil, err
		}
		if err := w.Section("aux/"+a.name, enc.Bytes()); err != nil {
			return nil, err
		}
	}
	return &Checkpoint{At: at, BaseEvents: base, Data: w.Finish()}, nil
}

// restoreInto loads ck into a freshly built, wired, attached simulation:
// component and aux state restore section by section, connection counters
// land on whichever wiring the plan produced, and the canonical event list
// re-posts — named events to the scheduler holding the handler, deliveries
// to the scheduler of the group owning the target sink.
func (s *Simulation) restoreInto(ck *Checkpoint, pl *ExecutionPlan, scheds []*sim.Scheduler) error {
	r, err := snap.Open(ck.Data)
	if err != nil {
		return err
	}
	mb, err := r.Section("meta")
	if err != nil {
		return err
	}
	md := snap.NewDecoder(mb)
	if at := sim.Time(md.I64()); md.Err() == nil && at != ck.At {
		return fmt.Errorf("orch: checkpoint time %v does not match metadata %v", ck.At, at)
	}
	md.U64() // BaseEvents, informational
	if got := int(md.U32()); md.Err() == nil && got != len(s.comps) {
		return fmt.Errorf("%w: snapshot has %d components, build has %d",
			core.ErrNotCheckpointable, got, len(s.comps))
	}
	for _, c := range s.comps {
		if n := md.String(); md.Err() == nil && n != c.Name() {
			return fmt.Errorf("%w: component order mismatch (%q vs %q)",
				core.ErrNotCheckpointable, n, c.Name())
		}
	}
	if got := int(md.U32()); md.Err() == nil && got != len(s.auxs) {
		return fmt.Errorf("%w: snapshot has %d aux entries, build has %d",
			core.ErrNotCheckpointable, got, len(s.auxs))
	}
	for _, a := range s.auxs {
		if n := md.String(); md.Err() == nil && n != a.name {
			return fmt.Errorf("%w: aux order mismatch (%q vs %q)",
				core.ErrNotCheckpointable, n, a.name)
		}
	}
	nsinks := md.U32()
	if md.Err() != nil {
		return md.Err()
	}
	// Deliveries address sinks by walk position: a build whose walk has
	// another length fails here, before any state or event lands. The
	// counting walk sizes the one list that resolves positions.
	var walked uint32
	if err := s.walkSinks(func(core.Sink, core.Component) { walked++ }); err != nil {
		return err
	}
	if walked != nsinks {
		return fmt.Errorf("%w: snapshot has %d sinks, build has %d",
			core.ErrNotCheckpointable, nsinks, walked)
	}
	targets := make([]sinkRef, 0, nsinks)
	s.walkSinks(func(sk core.Sink, owner core.Component) {
		targets = append(targets, sinkRef{sink: sk, owner: owner})
	})

	for _, c := range s.comps {
		sec, err := r.Section("comp/" + c.Name())
		if err != nil {
			return err
		}
		if err := c.(core.Stateful).RestoreState(snap.NewDecoder(sec)); err != nil {
			return err
		}
	}
	for _, a := range s.auxs {
		sec, err := r.Section("aux/" + a.name)
		if err != nil {
			return err
		}
		if err := a.aux.RestoreState(snap.NewDecoder(sec)); err != nil {
			return err
		}
	}

	cb, err := r.Section("conns")
	if err != nil {
		return err
	}
	cd := snap.NewDecoder(cb)
	local := s.localChans()
	if got := int(cd.U32()); cd.Err() == nil && got != len(local) {
		return fmt.Errorf("%w: snapshot has %d channels, build has %d",
			core.ErrNotCheckpointable, got, len(local))
	}
	for _, c := range local {
		c.setTxData(cd.U64(), cd.U64())
	}
	if cd.Err() != nil {
		return cd.Err()
	}

	eb, err := r.Section("events")
	if err != nil {
		return err
	}
	ed := snap.NewDecoder(eb)
	n := int(ed.U32())
	for i := 0; i < n; i++ {
		if ed.Err() != nil {
			return ed.Err()
		}
		at := sim.Time(ed.I64())
		src := int32(ed.U32())
		kind := ed.U8()
		switch kind {
		case sim.PendingNamed:
			name := ed.String()
			var args sim.NamedArgs
			args[0], args[1], args[2] = ed.U64(), ed.U64(), ed.U64()
			if ed.Err() != nil {
				return ed.Err()
			}
			posted := false
			for _, sc := range scheds {
				if h, ok := sc.LookupNamed(name); ok {
					sc.PostNamed(at, src, h, args)
					posted = true
					break
				}
			}
			if !posted {
				return fmt.Errorf("orch: checkpoint names unregistered handler %q", name)
			}
		case sim.PendingDelivery:
			ord := ed.U32()
			if ed.Err() != nil {
				return ed.Err()
			}
			if ord >= nsinks || !sinkComparable(targets[ord].sink) {
				return fmt.Errorf("%w: sink %d of %d", core.ErrUnknownSink, ord, nsinks)
			}
			tgt := targets[ord]
			payload, err := core.DecodePayload(ed, tgt.owner)
			if err != nil {
				return err
			}
			scheds[pl.grpOf[tgt.owner]].PostDelivery(at, src, tgt.sink, payload)
		default:
			return fmt.Errorf("orch: unknown pending event kind %d", kind)
		}
	}
	return ed.Err()
}

// quiesce settles a joined group run at its end horizon so capture and the
// end-of-run sweep see all state: every runner stopped as soon as it reached
// the end, without consuming peers' final-window messages. Those residuals
// drain through the normal handle path up to each peer's end of stream —
// FIFO timestamps plus the horizon invariant put them all at or after the
// end, so nothing schedules into the past — which leaves every pipe empty
// (the outgoing direction is the peer's incoming one, so the sweep covers
// both directions of every channel).
func quiesce(g *link.Group) {
	for _, r := range g.Runners {
		for _, e := range r.Endpoints() {
			e.DrainResidual()
		}
	}
}
