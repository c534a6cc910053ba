package memsim

import (
	"reflect"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snap"
)

// Explicit-state support: cores and the memory controller implement
// core.Stateful; the monolithic wrapper does not, so a checkpoint of it
// fails with core.ErrNotCheckpointable. Configuration (Params, bindings,
// cost-account routing) is reproduced by the identical build; only mutable
// progress serializes. In-flight MemReq/MemResp messages travel through the
// payload codecs registered below; a decoded one is a fresh record.

var (
	_ core.Stateful = (*Core)(nil)
	_ core.Stateful = (*Mem)(nil)
)

func init() {
	core.RegisterPayload("memsim.MemReq", reflect.TypeOf(&MemReq{}),
		func(e *snap.Encoder, m core.Message) error {
			r := m.(*MemReq)
			e.U32(uint32(r.Core))
			e.U64(r.ID)
			return nil
		},
		func(d *snap.Decoder, _ core.Component) (core.Message, error) {
			return &MemReq{Core: int(d.U32()), ID: d.U64()}, d.Err()
		})
	core.RegisterPayload("memsim.MemResp", reflect.TypeOf(&MemResp{}),
		func(e *snap.Encoder, m core.Message) error {
			r := m.(*MemResp)
			e.U32(uint32(r.Core))
			e.U64(r.ID)
			return nil
		},
		func(d *snap.Decoder, _ core.Component) (core.Message, error) {
			return &MemResp{Core: int(d.U32()), ID: d.U64()}, d.Err()
		})
}

// SnapshotState implements core.Stateful.
func (c *Core) SnapshotState(e *snap.Encoder) error {
	e.U64(c.Blocks)
	e.I64(int64(c.StallTime))
	e.U64(c.pending)
	e.I64(int64(c.issueAt))
	return nil
}

// RestoreState implements core.Stateful.
func (c *Core) RestoreState(d *snap.Decoder) error {
	c.Blocks = d.U64()
	c.StallTime = sim.Time(d.I64())
	c.pending = d.U64()
	c.issueAt = sim.Time(d.I64())
	return d.Err()
}

// WalkSinks implements core.Stateful.
func (c *Core) WalkSinks(fn func(s core.Sink)) {
	fn(&c.respSink)
}

// StartRestored implements core.Stateful: adopt the run window; the pending
// block-completion event rides in the checkpoint's event section.
func (c *Core) StartRestored(end sim.Time) { c.end = end }

// SnapshotState implements core.Stateful. The pending-request FIFO encodes
// from its cursor, so the restored queue is the logical queue.
func (m *Mem) SnapshotState(e *snap.Encoder) error {
	e.I64(int64(m.busyUntil))
	e.U64(m.Txns)
	live := m.pend[m.pendHead:]
	e.U32(uint32(len(live)))
	for _, r := range live {
		e.U32(uint32(r.Core))
		e.U64(r.ID)
	}
	return nil
}

// RestoreState implements core.Stateful.
func (m *Mem) RestoreState(d *snap.Decoder) error {
	m.busyUntil = sim.Time(d.I64())
	m.Txns = d.U64()
	n := int(d.U32())
	m.pend = m.pend[:0]
	m.pendHead = 0
	for i := 0; i < n; i++ {
		if d.Err() != nil {
			return d.Err()
		}
		m.pend = append(m.pend, &MemReq{Core: int(d.U32()), ID: d.U64()})
	}
	return d.Err()
}

// WalkSinks implements core.Stateful.
func (m *Mem) WalkSinks(fn func(s core.Sink)) {
	fn(&m.reqSink)
}

// StartRestored implements core.Stateful (Start seeds nothing either).
func (m *Mem) StartRestored(end sim.Time) {}
