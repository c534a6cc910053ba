// Package snap is the checkpoint wire format: a flat, versioned,
// CRC-guarded container of named sections, each holding fixed-width
// little-endian primitives. It is deliberately dumb — no reflection, no
// schema evolution beyond the version gate — because checkpoint bytes must
// be bit-identical across executors and placements, and the simplest
// encoding is the easiest to keep deterministic.
//
// Reading never panics: truncated or garbled input surfaces as the typed
// errors ErrTruncated, ErrCorrupt, and ErrVersion. The Decoder carries a
// sticky error so restore code can decode a whole struct and check Err()
// once at the end.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Typed read errors. Callers branch on these with errors.Is.
var (
	// ErrTruncated reports input that ends before a declared length.
	ErrTruncated = errors.New("snap: truncated input")
	// ErrCorrupt reports structurally invalid input: bad magic, CRC
	// mismatch, duplicate or malformed sections.
	ErrCorrupt = errors.New("snap: corrupt input")
	// ErrVersion reports a container written by an incompatible version.
	ErrVersion = errors.New("snap: unsupported version")
)

const (
	// magic identifies a snap container ("SPSN" little-endian).
	magic uint32 = 0x4e535053
	// Version is the current container version.
	Version uint16 = 5
)

// Encoder appends fixed-width little-endian primitives to a buffer.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the encoder to empty while keeping its backing array, so
// a periodic in-memory snapshot (the optimistic executor takes one per
// committed horizon) reuses one buffer instead of allocating each time.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 double.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a uint32 length prefix followed by the bytes.
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads fixed-width primitives from a buffer with a sticky error:
// once a read runs past the end, Err() returns ErrTruncated and every
// subsequent read yields zero values. Check Err() after decoding.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky error, if any read failed.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 double.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a 0/1 byte; any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a uint32-length-prefixed byte slice. The returned slice
// aliases the decoder's buffer; copy it before retaining or mutating.
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// Writer assembles a container: a header, named sections, and a trailing
// CRC over everything before it.
type Writer struct {
	buf   []byte
	names map[string]bool
}

// NewWriter starts a container.
func NewWriter() *Writer {
	w := &Writer{names: make(map[string]bool)}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, magic)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	return w
}

// Section appends a named section. Names must be unique within a container.
func (w *Writer) Section(name string, payload []byte) error {
	if w.names[name] {
		return fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
	}
	w.names[name] = true
	var e Encoder
	e.String(name)
	e.Bytes32(payload)
	w.buf = append(w.buf, e.Bytes()...)
	return nil
}

// Finish appends the CRC32 trailer and returns the container bytes. The
// writer must not be reused afterwards.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	return w.buf
}

// Reader is a parsed container: a map from section name to payload.
type Reader struct {
	sections map[string][]byte
}

// Open validates the container (magic, version, CRC, section structure) and
// indexes its sections. Section payloads alias data.
func Open(data []byte) (*Reader, error) {
	if len(data) < 10 { // magic + version + CRC
		return nil, ErrTruncated
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != Version {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrVersion, v, Version)
	}
	r := &Reader{sections: make(map[string][]byte)}
	d := NewDecoder(body[6:])
	for d.Remaining() > 0 {
		name := d.String()
		payload := d.Bytes32()
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: malformed section table", ErrCorrupt)
		}
		if _, dup := r.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		r.sections[name] = payload
	}
	return r, nil
}

// Section returns the payload of a named section.
func (r *Reader) Section(name string) ([]byte, error) {
	p, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return p, nil
}

// Names returns the section names, sorted.
func (r *Reader) Names() []string {
	out := make([]string, 0, len(r.sections))
	for n := range r.sections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
