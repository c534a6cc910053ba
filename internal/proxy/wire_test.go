package proxy

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{kind: kindSync, ch: 3, t: 12345},
		{kind: kindData, ch: 7, t: 99, sub: 2, payload: []byte("hello world")},
		{kind: kindData, ch: 0, t: 0, payload: nil},
		{kind: kindEOS, ch: 65535, t: 42},
		{kind: kindHeartbeat},
		{kind: kindReject},
		{kind: kindBye},
	}
	for _, want := range cases {
		enc := appendWireFrame(nil, want)
		got, err := readFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("kind %d: %v", want.kind, err)
		}
		if got.kind != want.kind || got.ch != want.ch || got.t != want.t ||
			got.sub != want.sub || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("kind %d: round trip changed frame: %+v -> %+v", want.kind, want, got)
		}
	}
}

// TestRejectsTrailingGarbage is the satellite-4 regression: sync and EOS
// frames whose length field claims payload bytes must be rejected even when
// the checksum is consistent, instead of silently accepted.
func TestRejectsTrailingGarbage(t *testing.T) {
	for _, kind := range []byte{kindSync, kindEOS, kindHeartbeat, kindReject, kindBye} {
		enc := appendWireFrame(nil, frame{kind: kind, payload: []byte{0xde, 0xad}})
		if _, err := parseFrame(enc[4:]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d with trailing garbage: got %v, want ErrCorrupt", kind, err)
		}
	}
	// Sub-channel and timestamp abuse on control frames is garbage too.
	if _, err := parseFrame(appendWireFrame(nil, frame{kind: kindSync, sub: 1})[4:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sync with sub-channel: got %v, want ErrCorrupt", err)
	}
	if _, err := parseFrame(appendWireFrame(nil, frame{kind: kindHeartbeat, t: 5})[4:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("heartbeat with timestamp: got %v, want ErrCorrupt", err)
	}
}

// TestEveryBitFlipDetected flips each bit of an encoded frame body and
// demands the parser notice: this is the checksum layer's whole job.
func TestEveryBitFlipDetected(t *testing.T) {
	enc := appendWireFrame(nil, frame{kind: kindData, ch: 9, t: 777, sub: 1, payload: []byte("payload bytes")})
	body := enc[4:]
	for i := 0; i < len(body)*8; i++ {
		mut := append([]byte(nil), body...)
		mut[i/8] ^= 1 << (i % 8)
		if _, err := parseFrame(mut); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	seqs := []chanSeq{{id: 0, seq: 17}, {id: 3, seq: 0}, {id: 9, seq: 1 << 40}}
	hf, err := readFrame(bytes.NewReader(appendHelloFrame(nil, seqs)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseHello(hf.payload)
	if err != nil {
		t.Fatal(err)
	}
	af, err := readFrame(bytes.NewReader(appendAckFrame(nil, seqs)))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := parseAck(af.payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqs {
		if got[i] != seqs[i] || got2[i] != seqs[i] {
			t.Fatalf("hello/ack round trip changed pair %d", i)
		}
	}
	// Version and length validation.
	bad := append([]byte(nil), hf.payload...)
	bad[4] = 99
	if _, err := parseHello(bad); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong version: got %v, want ErrHandshake", err)
	}
	if _, err := parseHello(hf.payload[:len(hf.payload)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated hello: got %v, want ErrCorrupt", err)
	}
	if _, err := parseAck(af.payload[:len(af.payload)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated ack: got %v, want ErrCorrupt", err)
	}
}

// TestRejectsOversizedFrame: the inbound side of every connection reads
// frames through readFrame, which must refuse a corrupt length prefix before
// allocating for it, and whose end-of-stream errors mapEOF turns into
// ErrClosed — a connection dying mid-frame is a dirty disconnect, not a bare
// EOF.
func TestRejectsOversizedFrame(t *testing.T) {
	// A corrupt 1 GB length prefix.
	if _, err := readFrame(bytes.NewReader([]byte{0x40, 0x00, 0x00, 0x00})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: got %v, want ErrCorrupt", err)
	}
	// A length prefix promising 20 bytes, then only 3 and a slammed door.
	_, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 20, 1, 2, 3}))
	if err = mapEOF(err); !errors.Is(err, ErrClosed) {
		t.Fatalf("dirty disconnect: got %v, want ErrClosed", err)
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
