package core

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
)

// This file defines the explicit-state contract: how components expose
// their mutable simulation state for checkpointing, how channel payloads in
// flight serialize, and how components enumerate their sinks so a re-posted
// delivery event can find its target in a freshly built simulation.

// Checkpoint-boundary errors. They mark state the format deliberately does
// not capture; a checkpoint attempt that hits one fails cleanly instead of
// writing an unrestorable snapshot.
var (
	// ErrNotCheckpointable reports component state outside the format:
	// dynamically created TCP flows, in-flight detailed-host jobs, pending
	// closure waiters.
	ErrNotCheckpointable = errors.New("core: state not checkpointable")
	// ErrUnknownPayload reports an in-flight message type with no
	// registered codec.
	ErrUnknownPayload = errors.New("core: no codec registered for payload type")
	// ErrUnknownSink reports a delivery event whose sink the simulation's
	// sink walk cannot address: at capture, a sink no component or channel
	// enumerates (or a func-typed one); at restore, a position the build's
	// walk does not have or that holds no addressable sink.
	ErrUnknownSink = errors.New("core: delivery sink not in the sink walk")
)

// Stateful is implemented by components whose simulation state can be
// captured and rebuilt. The contract: a checkpoint snapshots a quiesced
// component via SnapshotState; restore runs on a freshly constructed,
// identically configured component after Attach, via RestoreState; then
// StartRestored replaces Start (seeding no initial events — the pending
// ones ride in the checkpoint's event section).
type Stateful interface {
	Component
	// SnapshotState appends the component's state. It returns
	// ErrNotCheckpointable (wrapped) when live state falls outside the
	// format.
	SnapshotState(enc *snap.Encoder) error
	// RestoreState rebuilds state from a snapshot taken by an identically
	// configured component. Decode errors and layout mismatches surface as
	// typed errors, never panics.
	RestoreState(dec *snap.Decoder) error
	// WalkSinks visits every delivery sink the component owns, in an order
	// identical builds reproduce. A checkpoint addresses a re-posted
	// delivery by its sink's position in the simulation-wide walk, so the
	// order is part of the format.
	WalkSinks(fn func(s Sink))
	// StartRestored is Start for a restored run: adopt the end time and any
	// runtime wiring Start would do, but seed no events.
	StartRestored(end sim.Time)
}

// AuxState is implemented by non-component state holders that ride along in
// a checkpoint (workload engines, measurement reservoirs). They are
// registered on the simulation under a unique name.
type AuxState interface {
	SnapshotState(enc *snap.Encoder) error
	RestoreState(dec *snap.Decoder) error
}

// FrameMaker is implemented by components that own a frame pool and can
// mint frames for decoded in-flight messages, so restored frames keep pool
// ownership intact (LiveFrames balances after a restored run).
type FrameMaker interface {
	NewFrame() *proto.Frame
}

// payloadCodec serializes one concrete Message type.
type payloadCodec struct {
	name string
	enc  func(e *snap.Encoder, m Message) error
	dec  func(d *snap.Decoder, owner Component) (Message, error)
}

var (
	payloadByType = map[reflect.Type]*payloadCodec{}
	payloadByName = map[string]*payloadCodec{}
)

// RegisterPayload registers a codec for one concrete payload type under a
// stable name. dec receives the component owning the destination sink, so
// pooled payloads can be reminted from that component's pool (via
// FrameMaker). Registration happens in package init functions; duplicate
// names or types panic.
func RegisterPayload(name string, t reflect.Type,
	enc func(e *snap.Encoder, m Message) error,
	dec func(d *snap.Decoder, owner Component) (Message, error)) {
	if _, dup := payloadByName[name]; dup {
		panic("core: payload codec " + name + " registered twice")
	}
	if _, dup := payloadByType[t]; dup {
		panic("core: payload type " + t.String() + " registered twice")
	}
	c := &payloadCodec{name: name, enc: enc, dec: dec}
	payloadByName[name] = c
	payloadByType[t] = c
}

// EncodePayload appends m's codec name and encoded bytes.
func EncodePayload(e *snap.Encoder, m Message) error {
	c, ok := payloadByType[reflect.TypeOf(m)]
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnknownPayload, m)
	}
	e.String(c.name)
	return c.enc(e, m)
}

// DecodePayload reads one payload encoded by EncodePayload. owner is the
// component whose sink will receive it.
func DecodePayload(d *snap.Decoder, owner Component) (Message, error) {
	name := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	c, ok := payloadByName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPayload, name)
	}
	return c.dec(d, owner)
}

// RegisterNamed registers a named event handler with the component's
// ordering source baked in: events re-posted from a checkpoint carry the
// handler name, and the handler re-registers at Attach time in the fresh
// simulation.
func (e Env) RegisterNamed(name string, fn func(sim.NamedArgs)) int32 {
	return e.Sched.RegisterNamed(name, fn)
}

// PostNamed schedules a named event at absolute time t with the component's
// ordering source. It orders identically to Post at the same call position.
func (e Env) PostNamed(t sim.Time, h int32, args sim.NamedArgs) {
	e.Sched.PostNamed(t, e.Src, h, args)
}

// The optimistic input log keys its deep-copy-vs-reference decision on
// Releaser. Wire frames must stay on the deep-copy side: delivery adopts
// their byte buffer, so a logged reference would replay recycled storage.
var _ Releaser = (*proto.WireFrame)(nil)

// Frame payload codecs: the three wire-message shapes the substrates
// exchange. Frames re-mint from the destination component's pool so
// ownership (and the leak counters) stay balanced across a restore. The
// encoded form is the on-the-wire byte string — AppendFrame covers headers
// plus real payload, with virtual payload reconstructed from the IP total
// length — plus the VirtualPayload length for validation.
func init() {
	RegisterPayload("proto.Frame", reflect.TypeOf(&proto.Frame{}),
		func(e *snap.Encoder, m Message) error {
			f := m.(*proto.Frame)
			e.Bytes32(proto.AppendFrame(nil, f))
			return nil
		},
		func(d *snap.Decoder, owner Component) (Message, error) {
			raw := d.Bytes32()
			if err := d.Err(); err != nil {
				return nil, err
			}
			fm, ok := owner.(FrameMaker)
			if !ok {
				return nil, fmt.Errorf("%w: component %q cannot mint frames", ErrNotCheckpointable, owner.Name())
			}
			f := fm.NewFrame()
			// ParseFrameInto adopts its buffer, so hand it a copy — raw
			// aliases the checkpoint bytes, which outlive this frame and
			// must stay immutable (a restore may run many times from one
			// checkpoint).
			if err := proto.ParseFrameInto(f, append([]byte(nil), raw...)); err != nil {
				f.Release()
				return nil, err
			}
			return f, nil
		})
	RegisterPayload("proto.WireFrame", reflect.TypeOf(&proto.WireFrame{}),
		func(e *snap.Encoder, m Message) error {
			e.Bytes32(m.(*proto.WireFrame).B)
			return nil
		},
		func(d *snap.Decoder, owner Component) (Message, error) {
			raw := d.Bytes32()
			if err := d.Err(); err != nil {
				return nil, err
			}
			return proto.GetWireFrame(append([]byte(nil), raw...)), nil
		})
}
