package slab

import (
	"testing"
	"unsafe"
)

type rec struct {
	p *rec
	v [5]int64
}

// TestCut: a chunk holding pointers fills the largest small-object size
// class with its allocator header, runs are zeroed, adjacent and capped at
// their length (an append moves a run out instead of writing into the next
// one), chunks double from firstChunk records up to a full one, and a run
// longer than a chunk gets a chunk of its own.
func TestCut(t *testing.T) {
	per, size := PerChunk[rec](), int(unsafe.Sizeof(rec{}))
	if per*size+headerBytes > ChunkBytes || (per+1)*size+headerBytes <= ChunkBytes {
		t.Fatalf("%d %d-byte records per chunk", per, size)
	}
	var s Slab[rec]
	a := s.Cut(3)
	a[2].v[0] = 7
	b := s.Cut(2)
	if len(b) != 2 || cap(b) != 2 || b[0] != (rec{}) {
		t.Fatalf("second run: len %d cap %d first %+v", len(b), cap(b), b[0])
	}
	if uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&a[2])) != uintptr(size) {
		t.Fatal("consecutive runs are not adjacent in one chunk")
	}
	b = append(b, rec{v: [5]int64{9}})
	if c := s.New(); *c != (rec{}) {
		t.Fatalf("append to a run wrote into the next one: %+v", *c)
	}
	for want := 2 * firstChunk; s.last < per; want *= 2 {
		s.Cut(len(s.free) + 1)
		if s.last != min(want, per) {
			t.Fatalf("chunk of %d records after one of %d, want %d", s.last, want/2, min(want, per))
		}
	}
	big := s.Cut(3 * per)
	if len(big) != 3*per || a[2].v[0] != 7 || b[2].v[0] != 9 {
		t.Fatalf("long run of %d, or an earlier run overwritten", len(big))
	}
	if n := PerChunk[*int](); n != (ChunkBytes-headerBytes)/8 {
		t.Fatalf("%d pointers per chunk", n)
	}
	var words Slab[*int]
	if len(words.Cut(0)) != 0 {
		t.Fatal("empty run")
	}
}
