package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Wire protocol v5. Every frame is
//
//	u32  length of the remainder (header + payload)
//	u32  bitwise complement of the length
//	u8   kind
//	u16  channel id (mux; one TCP connection carries many spliced channels)
//	u64  virtual timestamp (ps; 0 for hello)
//	u64  hold (ps past the timestamp the payload leaves its sender; data only)
//	u16  sub-channel (trunk demux; 0 for sync, EOS and hello)
//	u32  CRC32-C over the header fields above and the payload
//	payload bytes
//
// The reader checks the length against its complement before it waits for
// the remainder, so a flipped length bit fails the frame at once instead
// of leaving the reader blocked on bytes the peer never sends. Data and
// sync frames carry no sequence number: TCP and the channel pipes are both
// FIFO, so the k-th frame on a channel is message k.
const (
	kindSync  byte = 0 // advances the peer's horizon, no payload
	kindData  byte = 1 // encoded Ethernet frame
	kindEOS   byte = 2 // clean end of one channel's stream
	kindHello byte = 3 // handshake: magic, version, channel count
)

const prefixLen = 4 + 4 // length + its complement

const headerLen = 1 + 2 + 8 + 8 + 2 + 4 // kind + channel + timestamp + hold + sub + crc

// crcOffset is where the checksum sits inside the remainder.
const crcOffset = 1 + 2 + 8 + 8 + 2

// maxFrame bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrame = 16 << 20

const (
	helloMagic   = 0x53535058 // "SSPX"
	protoVersion = 5
	helloLen     = 4 + 1 + 2 // magic + version + channel count
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed transport errors. Forward's every failure is one of these, so
// callers can errors.Is against them; the cause stays wrapped inside.
var (
	// ErrClosed reports a connection that failed (an I/O error or a dirty
	// disconnect) before every channel delivered its EOS both ways.
	ErrClosed = errors.New("proxy: connection closed mid-stream")
	// ErrCorrupt reports a frame that failed validation (bad length or
	// length check word, checksum mismatch, unknown kind or channel, or trailing garbage).
	ErrCorrupt = errors.New("proxy: corrupt frame")
	// ErrHandshake reports a hello the two peers disagree on (magic,
	// protocol version or channel count).
	ErrHandshake = errors.New("proxy: handshake failed")
)

// frame is one decoded wire unit.
type frame struct {
	kind    byte
	ch      uint16
	t       sim.Time
	hold    sim.Time
	sub     uint16
	payload []byte
}

// appendWireFrame encodes f (length prefix included) onto dst.
func appendWireFrame(dst []byte, f frame) []byte {
	n := uint32(headerLen + len(f.payload))
	dst = binary.BigEndian.AppendUint32(dst, n)
	dst = binary.BigEndian.AppendUint32(dst, ^n)
	base := len(dst)
	dst = append(dst, f.kind)
	dst = binary.BigEndian.AppendUint16(dst, f.ch)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.t))
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.hold))
	dst = binary.BigEndian.AppendUint16(dst, f.sub)
	crc := crc32.Checksum(dst[base:base+crcOffset], crcTable)
	crc = crc32.Update(crc, crcTable, f.payload)
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, f.payload...)
}

// parseFrame decodes the remainder of a frame (everything after the
// length prefix). The returned payload aliases b. Every validation failure
// wraps ErrCorrupt: a checksum mismatch, an unknown kind, or a sync, EOS
// or hello frame carrying header fields or bytes it must not (accepting
// those would let a framing desync go unnoticed until a later frame
// exploded deep in the endpoint).
func parseFrame(b []byte) (frame, error) {
	var f frame
	if len(b) < headerLen {
		return f, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorrupt, len(b), headerLen)
	}
	f.kind = b[0]
	f.ch = binary.BigEndian.Uint16(b[1:])
	f.t = sim.Time(binary.BigEndian.Uint64(b[3:]))
	f.hold = sim.Time(binary.BigEndian.Uint64(b[11:]))
	f.sub = binary.BigEndian.Uint16(b[19:])
	want := binary.BigEndian.Uint32(b[crcOffset:])
	got := crc32.Checksum(b[:crcOffset], crcTable)
	got = crc32.Update(got, crcTable, b[headerLen:])
	if got != want {
		return f, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	f.payload = b[headerLen:]
	switch f.kind {
	case kindData:
		if f.hold < 0 {
			return f, fmt.Errorf("%w: data with hold %d", ErrCorrupt, f.hold)
		}
	case kindSync, kindEOS:
		if len(f.payload) != 0 || f.sub != 0 || f.hold != 0 {
			return f, fmt.Errorf("%w: kind %d with sub-channel %d, hold %d and %d payload bytes",
				ErrCorrupt, f.kind, f.sub, f.hold, len(f.payload))
		}
	case kindHello:
		if f.ch != 0 || f.sub != 0 || f.t != 0 || f.hold != 0 {
			return f, fmt.Errorf("%w: hello with a channel, sub-channel, timestamp or hold", ErrCorrupt)
		}
	default:
		return f, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, f.kind)
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from r into buf, growing it as
// needed, and returns the frame with the (possibly grown) buffer. The
// frame's payload aliases buf, which the caller reuses for the next frame.
// I/O errors come back verbatim.
func readFrame(r io.Reader, buf []byte) (frame, []byte, error) {
	buf, err := readRaw(r, buf)
	if err != nil {
		return frame{}, buf, err
	}
	f, err := parseFrame(buf)
	return f, buf, err
}

// readRaw reads one length-prefixed frame's remainder from r into buf,
// checking only the length against its complement and the frame bound.
func readRaw(r io.Reader, buf []byte) ([]byte, error) {
	var pre [prefixLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(pre[:])
	if chk := binary.BigEndian.Uint32(pre[4:]); chk != ^n {
		return buf, fmt.Errorf("%w: length %d with check word %08x", ErrCorrupt, n, chk)
	}
	if n < 1 || n > maxFrame {
		return buf, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// appendHelloFrame builds a complete hello frame for n channels.
func appendHelloFrame(dst []byte, n int) []byte {
	p := make([]byte, 0, helloLen)
	p = binary.BigEndian.AppendUint32(p, helloMagic)
	p = append(p, protoVersion)
	p = binary.BigEndian.AppendUint16(p, uint16(n))
	return appendWireFrame(dst, frame{kind: kindHello, payload: p})
}

// olderHello reports the protocol version of a hello remainder b that a
// peer speaking another version framed: the length prefix and the kind byte
// lead and the hello payload ends every version's hello frame, so the
// version reads whatever header lies between. ok is false when b is no
// recognizable hello.
func olderHello(b []byte) (version byte, ok bool) {
	if len(b) < 1+helloLen || b[0] != kindHello {
		return 0, false
	}
	p := b[len(b)-helloLen:]
	if binary.BigEndian.Uint32(p) != helloMagic {
		return 0, false
	}
	return p[4], true
}

// parseHello decodes a hello payload into the peer's channel count,
// validating length, magic and version.
func parseHello(p []byte) (int, error) {
	if len(p) != helloLen {
		return 0, fmt.Errorf("%w: hello payload %d bytes, want %d", ErrCorrupt, len(p), helloLen)
	}
	if binary.BigEndian.Uint32(p) != helloMagic {
		return 0, fmt.Errorf("%w: bad hello magic", ErrHandshake)
	}
	if v := p[4]; v != protoVersion {
		return 0, fmt.Errorf("%w: peer speaks wire protocol v%d, want v%d", ErrHandshake, v, protoVersion)
	}
	return int(binary.BigEndian.Uint16(p[5:])), nil
}

// encodePayload appends the wire bytes of a data message's payload to dst.
// Every component boundary carries Ethernet frames, so that is the one
// payload type the wire knows: already encoded (*proto.WireFrame), or handed
// over whole (*proto.Frame, from a partition boundary Topology.Build paired
// and the plan placed across the connection), encoded here. Neither goes
// back to a pool: the wrapper crossed a goroutine boundary to get here, and
// a handed-over frame is detached from its sender's.
func encodePayload(dst []byte, m core.Message) ([]byte, error) {
	switch m := m.(type) {
	case *proto.WireFrame:
		dst = append(dst, m.B...)
	case *proto.Frame:
		dst = proto.AppendFrame(dst, m)
	default:
		return dst, fmt.Errorf("proxy: expected an Ethernet frame, got %T", m)
	}
	if headerLen+len(dst) > maxFrame {
		return dst, fmt.Errorf("proxy: payload of %d bytes exceeds frame limit", len(dst))
	}
	return dst, nil
}

// decodePayload wraps a data frame's payload for the local endpoint. The
// receiver adopts the bytes, so they are a copy of p, which aliases the
// reader's reused buffer.
func decodePayload(p []byte) *proto.WireFrame {
	return proto.GetWireFrame(append([]byte(nil), p...))
}
