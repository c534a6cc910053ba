package proxy

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/proto"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{kind: kindSync, ch: 3, t: 12345},
		{kind: kindData, ch: 7, t: 99, sub: 2, payload: []byte("hello world")},
		{kind: kindData, ch: 0, t: 0, payload: nil},
		{kind: kindEOS, ch: 65535, t: 42},
		{kind: kindHello, payload: []byte{1, 2, 3, 4, 5, 6, 7}},
	}
	for _, want := range cases {
		enc := appendWireFrame(nil, want)
		got, _, err := readFrame(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("kind %d: %v", want.kind, err)
		}
		if got.kind != want.kind || got.ch != want.ch || got.t != want.t ||
			got.sub != want.sub || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("kind %d: round trip changed frame: %+v -> %+v", want.kind, want, got)
		}
	}
}

// TestRejectsTrailingGarbage: sync and EOS frames whose length field claims
// payload bytes must be rejected even when the checksum is consistent,
// instead of silently accepted.
func TestRejectsTrailingGarbage(t *testing.T) {
	for _, kind := range []byte{kindSync, kindEOS} {
		enc := appendWireFrame(nil, frame{kind: kind, payload: []byte{0xde, 0xad}})
		if _, err := parseFrame(enc[prefixLen:]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d with trailing garbage: got %v, want ErrCorrupt", kind, err)
		}
	}
	// Sub-channel, channel and timestamp abuse on control frames is garbage too.
	for _, f := range []frame{{kind: kindSync, sub: 1}, {kind: kindHello, t: 5}, {kind: kindHello, ch: 1}} {
		if _, err := parseFrame(appendWireFrame(nil, f)[prefixLen:]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%+v: got %v, want ErrCorrupt", f, err)
		}
	}
	if _, err := parseFrame(appendWireFrame(nil, frame{kind: 4})[prefixLen:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: got %v, want ErrCorrupt", err)
	}
}

// TestEveryBitFlipDetected flips each bit of an encoded frame and demands
// the reader notice: a flip in the length prefix by its check word, before
// it reads on (a longer length would otherwise read past the frame and end
// in a bare EOF here, a hang on a live connection), a flip in the body by
// the checksum.
func TestEveryBitFlipDetected(t *testing.T) {
	enc := appendWireFrame(nil, frame{kind: kindData, ch: 9, t: 777, sub: 1, payload: []byte("payload bytes")})
	for i := 0; i < len(enc)*8; i++ {
		mut := append([]byte(nil), enc...)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, err := readFrame(bytes.NewReader(mut), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	hf, _, err := readFrame(bytes.NewReader(appendHelloFrame(nil, 300)), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := parseHello(hf.payload)
	if err != nil || n != 300 {
		t.Fatalf("hello round trip: %d channels, %v; want 300", n, err)
	}
	// Magic, version and length validation.
	bad := append([]byte(nil), hf.payload...)
	bad[4] = 2
	if _, err := parseHello(bad); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong version: got %v, want ErrHandshake", err)
	}
	bad = append([]byte(nil), hf.payload...)
	bad[0] ^= 1
	if _, err := parseHello(bad); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong magic: got %v, want ErrHandshake", err)
	}
	if _, err := parseHello(hf.payload[:len(hf.payload)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated hello: got %v, want ErrCorrupt", err)
	}
}

// TestRejectsOversizedFrame: the inbound side of every connection reads
// frames through readFrame, which must refuse a corrupt length prefix before
// allocating for it, and whose end-of-stream errors ioErr turns into
// ErrClosed — a connection dying mid-frame is a dirty disconnect, not a bare
// EOF.
func TestRejectsOversizedFrame(t *testing.T) {
	// A consistent 1 GB length prefix.
	if _, _, err := readFrame(bytes.NewReader([]byte{0x40, 0, 0, 0, 0xbf, 0xff, 0xff, 0xff}), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: got %v, want ErrCorrupt", err)
	}
	// A length prefix promising 20 bytes, then only 3 and a slammed door.
	_, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 20, 0xff, 0xff, 0xff, 0xeb, 1, 2, 3}), nil)
	if err = ioErr(err); !errors.Is(err, ErrClosed) {
		t.Fatalf("dirty disconnect: got %v, want ErrClosed", err)
	}
}

// TestCodecRoundTrip: a data frame's payload crosses the wire byte for byte,
// and the decoded frame owns a copy of it — the reader reuses its buffer
// for the next frame while the receiver keeps the one it was handed.
func TestCodecRoundTrip(t *testing.T) {
	f := &proto.Frame{
		Eth: proto.Ethernet{Dst: proto.MACFromID(2), Src: proto.MACFromID(1)},
		IP:  proto.IPv4{Src: proto.HostIP(1), Dst: proto.HostIP(2), Proto: proto.IPProtoUDP},
		UDP: proto.UDP{SrcPort: 1, DstPort: 9},
	}
	f.Seal()
	raw := proto.AppendFrame(nil, f)
	p, err := encodePayload(proto.GetWireFrame(raw))
	if err != nil {
		t.Fatal(err)
	}
	stream := appendWireFrame(nil, frame{kind: kindData, ch: 1, t: 5, payload: p})
	stream = appendWireFrame(stream, frame{kind: kindData, ch: 1, t: 6, payload: bytes.Repeat([]byte{0xee}, len(p))})
	r := bytes.NewReader(stream)
	fr, buf, err := readFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodePayload(fr.payload)
	if &got.B[0] == &buf[headerLen] {
		t.Fatal("decoded frame aliases the read buffer")
	}
	if _, _, err := readFrame(r, buf); err != nil {
		t.Fatal(err)
	}
	if string(got.B) != string(raw) {
		t.Fatal("codec round trip changed bytes, or reading the next frame overwrote them")
	}
	if _, err := encodePayload(f); err == nil {
		t.Fatal("encoding a decoded *proto.Frame should fail")
	}
	if _, err := encodePayload(badMsg{}); err == nil {
		t.Fatal("encoding a non-frame message should fail")
	}
}

type badMsg struct{}
