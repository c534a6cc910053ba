// Package proxy tunnels SplitSim channels between OS processes over TCP —
// the SimBricks proxy mechanism the paper relies on for scaling
// simulations out across machines ("scales out with proxy components that
// forward messages between simulator instances across hosts").
//
// One spliced channel half (link.NewHalf) lives in each process; a proxy
// pumps its messages over a length-prefixed, CRC32-C-checksummed TCP
// framing (wire protocol v2, see wire.go and DESIGN.md). The conservative
// synchronization protocol rides along unchanged: data and sync messages
// carry the sender's virtual timestamps, so the receiver's horizon
// computation is identical to the in-process case. Transport latency —
// and every recovery mechanism in this package: heartbeats, reconnect
// backoff, retransmission — costs wall-clock time only, never simulated
// time.
//
// Supervisor (see supervisor.go) is the transport: it multiplexes many
// channels over one connection, reconnects with bounded backoff, resyncs
// retransmit state through a hello handshake so a resumed run is
// bit-identical, and exports per-connection counters.
//
// Message payloads must be serializable; a Codec maps payload types to
// bytes. RawFrameCodec covers Ethernet channels (the boundary type used by
// network partitioning), and codecs compose per sub-channel for trunks.
package proxy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/proto"
)

// Codec serializes channel payloads for the wire.
type Codec interface {
	Encode(m core.Message) ([]byte, error)
	Decode(b []byte) (core.Message, error)
}

// RawFrameCodec carries encoded Ethernet frames (*proto.WireFrame) —
// the one frame type every component boundary exchanges.
type RawFrameCodec struct{}

// Encode implements Codec.
func (RawFrameCodec) Encode(m core.Message) ([]byte, error) {
	f, ok := m.(*proto.WireFrame)
	if !ok {
		return nil, fmt.Errorf("proxy: expected an encoded frame, got %T", m)
	}
	// The wrapper is not recycled here: it crossed a goroutine boundary to
	// reach the proxy, and the bytes outlive this call on the wire.
	return f.B, nil
}

// Decode implements Codec. The receiver adopts the buffer, so it is a
// copy of b, which the transport reuses.
func (RawFrameCodec) Decode(b []byte) (core.Message, error) {
	return proto.GetWireFrame(append([]byte(nil), b...)), nil
}

// encodeMsg turns one channel message into a complete wire frame on
// channel id ch.
func encodeMsg(dst []byte, ch uint16, m link.Message, codec Codec) ([]byte, error) {
	if m.Kind == link.KindData {
		payload, err := codec.Encode(m.Payload)
		if err != nil {
			return nil, err
		}
		if headerLen+len(payload) > maxFrame {
			return nil, fmt.Errorf("proxy: payload of %d bytes exceeds frame limit", len(payload))
		}
		return appendWireFrame(dst, frame{kind: kindData, ch: ch, t: m.T, sub: m.Sub, payload: payload}), nil
	}
	return appendWireFrame(dst, frame{kind: kindSync, ch: ch, t: m.T}), nil
}
