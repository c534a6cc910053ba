package snap

import (
	"errors"
	"testing"
)

// TestRoundTrip encodes every primitive through a sectioned container and
// decodes it back bit-exactly.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(0xab)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.F64(3.14159)
	e.Bool(true)
	e.Bool(false)
	e.Bytes32([]byte{1, 2, 3})
	e.String("hello")

	w := NewWriter()
	if err := w.Section("a", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("b", nil); err != nil {
		t.Fatal(err)
	}
	data := w.Finish()

	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("sections = %v, want [a b]", names)
	}
	if _, err := r.Section("c"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: err = %v, want ErrCorrupt", err)
	}
	p, err := r.Section("a")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(p)
	if v := d.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Fatalf("F64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round-trip wrong")
	}
	if b := d.Bytes32(); string(b) != "\x01\x02\x03" {
		t.Fatalf("Bytes32 = %v", b)
	}
	if s := d.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

// TestDecoderSticky verifies reads past the end set ErrTruncated once and
// keep returning zeros instead of panicking.
func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U8()
	if v := d.U64(); v != 0 {
		t.Fatalf("read past end = %d, want 0", v)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Still sticky.
	if s := d.String(); s != "" {
		t.Fatalf("String after error = %q", s)
	}
}

// TestDecoderHugeLength checks a length prefix larger than the buffer is a
// truncation, not an allocation or panic.
func TestDecoderHugeLength(t *testing.T) {
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0})
	if b := d.Bytes32(); b != nil {
		t.Fatalf("Bytes32 = %v, want nil", b)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
}

// TestOpenErrors drives Open through every typed failure.
func TestOpenErrors(t *testing.T) {
	w := NewWriter()
	if err := w.Section("s", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	good := w.Finish()

	if _, err := Open(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Open(good[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	// Flip a payload byte: CRC catches it.
	bad := append([]byte(nil), good...)
	bad[8] ^= 0xff
	if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbled: %v", err)
	}
	// Truncation also breaks the CRC.
	if _, err := Open(good[:len(good)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated tail: %v", err)
	}
	// Wrong version with a valid CRC.
	ver := append([]byte(nil), good...)
	ver[4] = 99
	ver = recrc(ver)
	if _, err := Open(ver); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: %v", err)
	}
}

// recrc rewrites the trailing CRC so structural corruption tests get past
// the checksum gate.
func recrc(data []byte) []byte {
	w := Writer{buf: data[:len(data)-4]}
	return w.Finish()
}

func TestDuplicateSection(t *testing.T) {
	w := NewWriter()
	if err := w.Section("s", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("s", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dup write: %v", err)
	}
	// A hand-built container with two sections of the same name must be
	// rejected on read too.
	var e Encoder
	e.String("s")
	e.Bytes32(nil)
	w2 := NewWriter()
	w2.buf = append(w2.buf, e.Bytes()...)
	w2.buf = append(w2.buf, e.Bytes()...)
	if _, err := Open(w2.Finish()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dup read: %v", err)
	}
}

// FuzzSnapshot feeds arbitrary bytes to Open and, when they parse, re-reads
// every section. Mirrors FuzzProxyFraming: the decoder must return typed
// errors on any input, never panic, and valid containers must round-trip.
func FuzzSnapshot(f *testing.F) {
	w := NewWriter()
	_ = w.Section("meta", []byte{1, 2, 3, 4})
	_ = w.Section("events", []byte("abcdefgh"))
	f.Add(w.Finish())
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x50, 0x53, 0x4e, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Parsed containers re-encode to the same section set.
		w := NewWriter()
		for _, name := range r.Names() {
			p, err := r.Section(name)
			if err != nil {
				t.Fatalf("listed section missing: %v", err)
			}
			if err := w.Section(name, p); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			d := NewDecoder(p)
			for d.Err() == nil && d.Remaining() > 0 {
				_ = d.U8()
			}
		}
		r2, err := Open(w.Finish())
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		if len(r2.Names()) != len(r.Names()) {
			t.Fatalf("section count changed: %v vs %v", r2.Names(), r.Names())
		}
	})
}
