package link

import (
	"testing"

	"repro/internal/sim"
)

// Microbenchmarks for the lock-free SPSC ring itself, isolated from the
// synchronization protocol: per-message cost of the staged/batched publish
// path, the bulk drain paths, and the cross-goroutine stream including the
// park/wake gate. scripts/bench.sh records them in BENCH_fabric.json.

// BenchmarkFabricSendTryRecv is the unbatched floor: one publish and one
// consumer pop per message, single goroutine (no parking).
func BenchmarkFabricSendTryRecv(b *testing.B) {
	p := newPipe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.send(Message{T: sim.Time(i), Kind: KindSync})
		if _, ok, _ := p.tryRecv(); !ok {
			b.Fatal("empty after send")
		}
	}
}

// BenchmarkFabricBatchPublishDrain stages a segment's worth of messages,
// publishes them with one flush, and consumes them in place with drain —
// the coupled-run fast path: one atomic publish and one atomic acquire per
// 64 messages.
func BenchmarkFabricBatchPublishDrain(b *testing.B) {
	p := newPipe()
	b.ReportAllocs()
	nop := func(Message) {}
	for n := 0; n < b.N; n += chunkSize {
		for i := 0; i < chunkSize; i++ {
			p.push(Message{T: sim.Time(n + i), Kind: KindSync})
		}
		p.flush()
		if k, _ := p.drain(nop); k != chunkSize {
			b.Fatalf("drained %d, want %d", k, chunkSize)
		}
	}
}

// BenchmarkFabricStream pushes messages through the ring between two real
// goroutines, the consumer using blocking recv: the steady-state cost of a
// producer that stays ahead, including segment recycling and the parked
// gate on both edges of the stream.
func BenchmarkFabricStream(b *testing.B) {
	p := newPipe()
	b.ReportAllocs()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok, closed := p.recv(); !ok {
				if closed {
					return
				}
			}
		}
	}()
	const batch = 64
	for i := 0; i < b.N; i++ {
		p.push(Message{T: sim.Time(i), Kind: KindSync})
		if i%batch == batch-1 {
			p.flush()
		}
	}
	p.close()
	<-done
}

// BenchmarkFabricPingPong bounces one message between two goroutines
// through a pipe pair: the worst case for the wake gate — every message
// parks one side and wakes the other, nothing to batch.
func BenchmarkFabricPingPong(b *testing.B) {
	ab, ba := newPipe(), newPipe()
	b.ReportAllocs()
	go func() {
		for {
			m, ok, _ := ab.recv()
			if !ok {
				ba.close()
				return
			}
			ba.send(m)
		}
	}()
	for i := 0; i < b.N; i++ {
		ab.send(Message{T: sim.Time(i), Kind: KindSync})
		if _, ok, _ := ba.recv(); !ok {
			b.Fatal("echo lost")
		}
	}
	ab.close()
}
