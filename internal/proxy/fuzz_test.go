package proxy

import (
	"bytes"
	"testing"
)

// FuzzProxyFraming mutation-fuzzes the wire format: parseFrame must never
// panic, must reject anything appendWireFrame did not produce, and must
// round-trip exactly what it accepts. readFrame gets the same bytes with
// the length prefix attached so the prefix validation is covered too.
func FuzzProxyFraming(f *testing.F) {
	seed := func(fr frame) {
		enc := appendWireFrame(nil, fr)
		f.Add(enc[prefixLen:])
	}
	seed(frame{kind: kindSync, ch: 1, t: 12345})
	seed(frame{kind: kindData, ch: 2, t: 67, sub: 1, payload: []byte("payload")})
	seed(frame{kind: kindEOS, ch: 3, t: 9})
	f.Add(appendHelloFrame(nil, 2)[prefixLen:])
	// A hello of another protocol version, and one cut short.
	seed(frame{kind: kindHello, payload: []byte{0x53, 0x53, 0x50, 0x58, 2, 0, 1}})
	seed(frame{kind: kindHello, payload: []byte{0x53, 0x53, 0x50, 0x58, 3}})
	seed(frame{kind: kindData, ch: 65535, t: 1 << 62, sub: 65535})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0xfd})

	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := parseFrame(body)
		if err != nil {
			return // rejected; that is a fine outcome for arbitrary bytes
		}
		// Accepted frames must be canonical: re-encoding reproduces the
		// input bit for bit (so decode accepts nothing encode cannot make).
		enc := appendWireFrame(nil, fr)
		if !bytes.Equal(enc[prefixLen:], body) {
			t.Fatalf("accepted non-canonical frame: %x re-encodes as %x", body, enc[prefixLen:])
		}
		// And the stream reader agrees with the buffer parser.
		got, _, err := readFrame(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("readFrame rejected what parseFrame accepted: %v", err)
		}
		if got.kind != fr.kind || got.ch != fr.ch || got.t != fr.t || got.sub != fr.sub ||
			!bytes.Equal(got.payload, fr.payload) {
			t.Fatalf("readFrame round trip changed frame: %+v -> %+v", fr, got)
		}
		// Hello payloads must parse without panicking on mutated input.
		if fr.kind == kindHello {
			parseHello(fr.payload)
		}
	})
}
