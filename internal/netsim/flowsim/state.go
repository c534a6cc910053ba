package flowsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snap"
)

// Engine implements core.AuxState so mixed-fidelity runs checkpoint: the
// fluid trajectory rides in the snapshot next to the packet-level
// substrate (whose per-iface reservations Network snapshots itself).
//
// Only replica 0 is encoded — all replicas hold identical state by
// construction — and paths, rates, and link tables are NOT stored:
// RestoreState re-resolves each flow's path against the freshly built
// fabric and recomputes rates, reproducing them bit-for-bit from the same
// routing tables and arithmetic. The pending wake event itself rides in
// the checkpoint's event section under the engine's registered name.

// SnapshotState implements core.AuxState.
func (e *Engine) SnapshotState(enc *snap.Encoder) error {
	r := e.reps[0]
	enc.U64(r.rng.State())
	enc.I64(int64(r.lastAdvance))
	enc.I64(int64(r.nextArrival))
	enc.I64(int64(r.nextWake))
	enc.U64(uint64(r.traceCur))
	enc.U64(uint64(r.started))
	enc.U64(uint64(r.completed))
	enc.U64(uint64(r.skipped))
	enc.U64(uint64(r.unroutable))
	enc.I64(r.bytesModeled)
	enc.U64(r.events)
	enc.U64(r.pktEvProj)

	// Endpoint sequence counters, sparse: at any checkpoint the vast
	// majority of a 10⁶-endpoint set has launched nothing.
	nz := uint32(0)
	for _, s := range r.seqs {
		if s != 0 {
			nz++
		}
	}
	enc.U32(nz)
	for i, s := range r.seqs {
		if s != 0 {
			enc.U32(uint32(i))
			enc.U32(uint32(s))
		}
	}

	enc.U32(uint32(len(r.flows)))
	for _, f := range r.flows {
		enc.U32(uint32(f.src))
		enc.U32(uint32(f.dst))
		enc.I64(f.bytes)
		enc.F64(f.remaining)
		enc.I64(int64(f.start))
	}
	r.fct.Snapshot(enc)
	return nil
}

// RestoreState implements core.AuxState: decode once, then rebuild every
// replica's state from the decoded trajectory — each re-resolves paths
// and reapplies reservations against its own partition's ifaces (writing
// the same values Network.RestoreState already placed there, which keeps
// the two layers consistent without ordering constraints between them).
func (e *Engine) RestoreState(dec *snap.Decoder) error {
	rngState := dec.U64()
	lastAdvance := sim.Time(dec.I64())
	nextArrival := sim.Time(dec.I64())
	nextWake := sim.Time(dec.I64())
	traceCur := int(dec.U64())
	started := int(dec.U64())
	completed := int(dec.U64())
	skipped := int(dec.U64())
	unroutable := int(dec.U64())
	bytesModeled := dec.I64()
	events := dec.U64()
	pktEvProj := dec.U64()

	nz := int(dec.U32())
	seqIdx := make([]uint32, nz)
	seqVal := make([]uint32, nz)
	for i := 0; i < nz; i++ {
		seqIdx[i] = dec.U32()
		seqVal[i] = dec.U32()
	}

	nf := int(dec.U32())
	type flowRec struct {
		src, dst uint32
		bytes    int64
		rem      float64
		start    sim.Time
	}
	recs := make([]flowRec, nf)
	for i := range recs {
		recs[i] = flowRec{
			src:   dec.U32(),
			dst:   dec.U32(),
			bytes: dec.I64(),
			rem:   dec.F64(),
			start: sim.Time(dec.I64()),
		}
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("flowsim: %w", err)
	}

	for _, r := range e.reps {
		r.rng.SetState(rngState)
		r.lastAdvance = lastAdvance
		r.nextArrival = nextArrival
		r.nextWake = nextWake
		r.traceCur = traceCur
		r.started = started
		r.completed = completed
		r.skipped = skipped
		r.unroutable = unroutable
		r.bytesModeled = bytesModeled
		r.events = events
		r.pktEvProj = pktEvProj

		for i := range r.seqs {
			r.seqs[i] = 0
		}
		for i := 0; i < nz; i++ {
			idx := int(seqIdx[i])
			if idx >= len(r.seqs) {
				return fmt.Errorf("flowsim: snapshot endpoint %d outside set of %d", idx, len(r.seqs))
			}
			r.seqs[idx] = int32(seqVal[i])
		}

		clear(r.flows)
		r.flows = r.flows[:0]
		r.resetLinks()
		for base := 0; base < len(recs); base += admitChunk {
			chunk, bad := r.chunk[:0], -1
			for i, rec := range recs[base:min(base+admitChunk, len(recs))] {
				if int(rec.src) >= len(e.endpoints) || int(rec.dst) >= len(e.endpoints) {
					bad = base + i // report it once the flows before it are checked
					break
				}
				chunk = append(chunk, r.newFlow(int32(rec.src), int32(rec.dst), rec.bytes, rec.rem, rec.start))
			}
			if _, first := r.admitBatch(chunk); first >= 0 {
				rec := recs[base+first]
				return fmt.Errorf("flowsim: snapshot flow %d (%d→%d) no longer routes", base+first, rec.src, rec.dst)
			}
			if bad >= 0 {
				return fmt.Errorf("flowsim: snapshot flow %d endpoints outside set", bad)
			}
		}
		r.recompute()
		r.applyReservations()
	}
	// One FCT decode, shared: restore replica 0's reservoir then copy its
	// decoded form to the others by re-walking the same bytes is wasteful;
	// instead restore 0 and clone state into siblings via snapshot replay.
	if err := e.reps[0].fct.Restore(dec); err != nil {
		return fmt.Errorf("flowsim: fct: %w", err)
	}
	for _, r := range e.reps[1:] {
		var tmp snap.Encoder
		e.reps[0].fct.Snapshot(&tmp)
		d := snap.NewDecoder(tmp.Bytes())
		if err := r.fct.Restore(d); err != nil {
			return fmt.Errorf("flowsim: fct replica: %w", err)
		}
	}
	return nil
}
