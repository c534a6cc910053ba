package link

import (
	"testing"

	"repro/internal/sim"
)

// drainBatch collects what one drain pass consumes.
func drainBatch(p *pipe) (batch []Message, closed bool) {
	_, closed = p.drain(func(m Message) { batch = append(batch, m) })
	return batch, closed
}

// TestPipeBoundedUnderProducerLead holds the queue at a constant depth while
// streaming many messages through: the consumer never fully drains. The
// segmented ring must keep recycling consumed segments back to the producer,
// so the number of segments ever allocated stays O(queue depth), not
// O(messages sent).
func TestPipeBoundedUnderProducerLead(t *testing.T) {
	const depth = 100
	const total = 200_000
	p := newPipe()
	for i := 0; i < depth; i++ {
		p.send(Message{T: sim.Time(i), Kind: KindSync})
	}
	for i := depth; i < total; i++ {
		p.send(Message{T: sim.Time(i), Kind: KindSync})
		if _, ok, _ := p.tryRecv(); !ok {
			t.Fatal("queue unexpectedly empty")
		}
	}
	// A depth-100 queue fits in one segment; with recycling the producer
	// should never need more than a few segments in flight, no matter how
	// many messages ever passed through.
	if allocs := p.chunkAllocs.Load(); allocs > 4 {
		t.Fatalf("pipe allocated %d segments for a queue of depth %d — consumed segments not recycled", allocs, depth)
	}
	if pk := p.peakDepth(); pk < depth || pk > depth+1 {
		t.Fatalf("peak depth = %d, want ~%d", pk, depth)
	}
	if got, _ := p.drain(func(Message) {}); got != depth {
		t.Fatalf("queue depth = %d, want %d", got, depth)
	}
}

// TestPipeChunkBoundary streams enough messages to cross several segment
// boundaries in every receive mode, covering the producer-side linking and
// consumer-side advance/recycle paths.
func TestPipeChunkBoundary(t *testing.T) {
	const total = 5*chunkSize + 17
	p := newPipe()
	for i := 0; i < total; i++ {
		p.send(Message{T: sim.Time(i), Sub: uint16(i)})
	}
	for i := 0; i < total/2; i++ {
		m, ok, _ := p.tryRecv()
		if !ok || m.T != sim.Time(i) {
			t.Fatalf("tryRecv #%d: ok=%v T=%v", i, ok, m.T)
		}
	}
	batch, closed := drainBatch(p)
	if closed || len(batch) != total-total/2 {
		t.Fatalf("batch len=%d closed=%v, want %d,false", len(batch), closed, total-total/2)
	}
	for i, m := range batch {
		if m.T != sim.Time(total/2+i) {
			t.Fatalf("batch[%d].T = %v, want %v", i, m.T, sim.Time(total/2+i))
		}
	}
	if !p.empty() {
		t.Fatal("pipe should be empty")
	}
}

// TestPipeStagedNotVisibleUntilFlush pins the batch-publication contract:
// push stages without publishing, flush makes everything visible at once.
func TestPipeStagedNotVisibleUntilFlush(t *testing.T) {
	p := newPipe()
	for i := 0; i < 5; i++ {
		p.push(Message{T: sim.Time(i), Kind: KindSync})
	}
	if !p.empty() {
		t.Fatal("staged messages already visible")
	}
	if _, ok, _ := p.tryRecv(); ok {
		t.Fatal("tryRecv saw a staged message before flush")
	}
	p.flush()
	batch, _ := drainBatch(p)
	if len(batch) != 5 || batch[0].T != 0 || batch[4].T != 4 {
		t.Fatalf("batch after flush: %v", batch)
	}
	// Flush with nothing staged is a no-op.
	p.flush()
	if !p.empty() {
		t.Fatal("empty flush published something")
	}
}

// TestPipeDrain covers the in-place drain path: ordering, the empty pass,
// and the closed signal.
func TestPipeDrain(t *testing.T) {
	p := newPipe()
	for i := 0; i < 10; i++ {
		p.send(Message{T: sim.Time(i), Kind: KindSync})
	}
	batch, closed := drainBatch(p)
	if closed || len(batch) != 10 {
		t.Fatalf("batch len=%d closed=%v, want 10,false", len(batch), closed)
	}
	for i, m := range batch {
		if m.T != sim.Time(i) {
			t.Fatalf("batch[%d].T = %v, want %v", i, m.T, sim.Time(i))
		}
	}
	// Empty now, not closed.
	if b2, c2 := drainBatch(p); len(b2) != 0 || c2 {
		t.Fatalf("second drain: len=%d closed=%v, want 0,false", len(b2), c2)
	}
	p.close()
	if _, c := drainBatch(p); !c {
		t.Fatal("drained closed pipe should report closed")
	}
}

// TestPipeMixedRecvModes interleaves tryRecv with drain to cover the
// consumer position bookkeeping shared by both paths.
func TestPipeMixedRecvModes(t *testing.T) {
	p := newPipe()
	for i := 0; i < 8; i++ {
		p.send(Message{T: sim.Time(i), Kind: KindSync})
	}
	if m, ok, _ := p.tryRecv(); !ok || m.T != 0 {
		t.Fatalf("tryRecv = %v,%v", m.T, ok)
	}
	batch, _ := drainBatch(p)
	if len(batch) != 7 || batch[0].T != 1 || batch[6].T != 7 {
		t.Fatalf("batch after partial consume: len=%d first=%v last=%v",
			len(batch), batch[0].T, batch[len(batch)-1].T)
	}
	if !p.empty() {
		t.Fatal("pipe should be empty")
	}
	// tryRecv after a batch drain must see fresh publications.
	p.send(Message{T: 42})
	if m, ok, _ := p.tryRecv(); !ok || m.T != 42 {
		t.Fatalf("tryRecv after batch drain: ok=%v T=%v", ok, m.T)
	}
}

// TestPipeCloseFlushesStaged verifies close publishes staged messages, so a
// finishing endpoint's final sync is never lost.
func TestPipeCloseFlushesStaged(t *testing.T) {
	p := newPipe()
	p.push(Message{T: 7, Kind: KindSync})
	p.close()
	m, ok, closed := p.recv()
	if !ok || closed || m.T != 7 {
		t.Fatalf("recv after close: m=%v ok=%v closed=%v", m.T, ok, closed)
	}
	if _, ok, closed := p.recv(); ok || !closed {
		t.Fatal("drained closed pipe should report closed")
	}
}

// TestPipeZeroAlloc pins the ring's steady state at zero allocations: the
// unbatched send→tryRecv path, and a segment-sized push→flush→drain cycle
// whose full segment is recycled through the spare slot instead of
// allocated afresh.
func TestPipeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	p := newPipe()
	single := func() {
		p.send(Message{Kind: KindSync})
		if _, ok, _ := p.tryRecv(); !ok {
			t.Fatal("empty after send")
		}
	}
	nop := func(Message) {}
	cycle := func() {
		for i := 0; i < chunkSize; i++ {
			p.push(Message{T: sim.Time(i), Kind: KindSync})
		}
		p.flush()
		if n, _ := p.drain(nop); n != chunkSize {
			t.Fatalf("drained %d, want %d", n, chunkSize)
		}
	}
	for i := 0; i < 2*chunkSize; i++ {
		single()
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, single); avg != 0 {
		t.Errorf("send→tryRecv allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("push×%d→flush→drain allocates %.2f/op, want 0", chunkSize, avg)
	}
	if n := p.chunkAllocs.Load(); n != 2 {
		t.Errorf("pipe allocated %d segments, want 2 (one live, one recycled)", n)
	}
}

// TestPipeSendOnClosedPanics pins the protocol-bug guard.
func TestPipeSendOnClosedPanics(t *testing.T) {
	p := newPipe()
	p.close()
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed pipe should panic")
		}
	}()
	p.send(Message{T: 1})
}
