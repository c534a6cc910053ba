// Package slab hands out values of one type from fixed-capacity chunks, so
// a structure made of many small records (a fabric's interfaces, the flow
// tier's links and flows) costs one heap object per chunk instead of one
// per record. A chunk is never regrown in place: every pointer and slice a
// slab has handed out stays valid for as long as it is reachable. Chunks
// start small and double up to ChunkBytes, so an owner with a handful of
// records does not pay for a full chunk.
//
// A slab belongs to one owner (a network, a flow-tier replica) and is not
// safe for concurrent use. Records are never returned to it; an owner that
// recycles records keeps its own free list. A chunk stays reachable while
// any record cut from it is, so a slab suits records that live about as
// long as their owner.
package slab

import "unsafe"

// ChunkBytes bounds one chunk. 32 KiB is the largest allocator size class:
// a chunk rounds up by less than one record, and a chunk the owner drops is
// reused by the allocator like any small object.
const ChunkBytes = 32 << 10

// headerBytes is left free in every chunk for the header the allocator
// puts in front of a pointer-holding object this large; a chunk of a full
// 32 KiB of pointers would spill into a 40 KiB large-object span.
const headerBytes = 8

// firstChunk is the record count of a slab's first chunk.
const firstChunk = 8

// Slab carves values of type T from chunks of at most ChunkBytes (a run
// longer than one chunk gets a chunk of its own). The zero value is ready.
type Slab[T any] struct {
	free []T // the current chunk's unused tail
	last int // record count of the last chunk made
}

// PerChunk returns how many T one chunk holds: as many as fit in
// ChunkBytes beside the allocator's header, at least one.
func PerChunk[T any]() int {
	var z T
	if sz := int(unsafe.Sizeof(z)); sz > 0 && sz <= ChunkBytes-headerBytes {
		return (ChunkBytes - headerBytes) / sz
	}
	return 1
}

// New returns a pointer to a zeroed T.
func (s *Slab[T]) New() *T { return &s.Cut(1)[0] }

// Cut returns n consecutive zeroed values with capacity n, so an append to
// the result moves it out of the chunk rather than into its neighbour's
// values. A run that does not fit in the current chunk's tail starts a new
// chunk; the tail it skips stays unused.
func (s *Slab[T]) Cut(n int) []T {
	if n > len(s.free) {
		s.last = min(max(2*s.last, firstChunk), PerChunk[T]())
		s.free = make([]T, max(n, s.last))
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}
