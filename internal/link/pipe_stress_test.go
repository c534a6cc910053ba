package link

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// These tests exercise the pipe's cross-goroutine contracts — publication
// visibility, the park/wake gate, close-while-non-empty, and interrupt —
// under the race detector. The single-goroutine FIFO semantics are covered
// by pipe_test.go and FuzzPipe.

// recvModes are the consumer's receive paths the tests below sweep; blocking
// puts the two blocking ones under one signature.
var recvModes = []string{"recv", "recvInterruptible", "drain"}

func blocking(mode string, p *pipe) (m Message, ok, closed bool) {
	if mode == "recv" {
		return p.recv()
	}
	m, ok, closed, _ = p.recvInterruptible()
	return m, ok, closed
}

// TestPipeStressProducerConsumer streams a large message sequence through
// one pipe with a real producer and consumer goroutine, the producer
// staging batches of varying size before publishing. The consumer mixes
// every receive mode and must observe an uninterrupted FIFO sequence.
func TestPipeStressProducerConsumer(t *testing.T) {
	const total = 300_000
	p := newPipe()

	go func() {
		for i := 0; i < total; i++ {
			p.push(Message{T: sim.Time(i), Kind: KindData, Sub: uint16(i)})
			// Vary the staging run length so publication happens at every
			// offset within a segment, including across segment boundaries.
			if i%7 == 0 || i%64 == 63 {
				p.flush()
			}
		}
		p.close()
	}()

	next := sim.Time(0)
	check := func(m Message) {
		if m.T != next {
			t.Errorf("out of order: got T=%v want %v", m.T, next)
		}
		next++
	}
	for i := 0; ; i++ {
		switch mode := recvModes[i%len(recvModes)]; mode {
		case "recv", "recvInterruptible":
			m, ok, closed := blocking(mode, p)
			if !ok {
				if !closed {
					t.Fatal("recv returned !ok without closed")
				}
				if next != total {
					t.Fatalf("closed after %d messages, want %d", next, total)
				}
				return
			}
			check(m)
		case "drain":
			if _, closed := p.drain(check); closed && next == total {
				return
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestPipeCloseWhileNonEmpty closes the pipe from the producer goroutine
// while published and staged messages are still queued: the consumer must
// drain every message before seeing end-of-stream, in every receive mode.
func TestPipeCloseWhileNonEmpty(t *testing.T) {
	for _, mode := range recvModes {
		t.Run(mode, func(t *testing.T) {
			const n = 2*chunkSize + 11
			p := newPipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < n; i++ {
					p.push(Message{T: sim.Time(i), Kind: KindSync})
				}
				// With the consumer not yet parked, everything above is
				// still staged: close must publish it all before marking
				// end-of-stream.
				p.close()
			}()
			<-done
			got := 0
			for {
				switch mode {
				case "recv", "recvInterruptible":
					m, ok, closed := blocking(mode, p)
					if !ok {
						if !closed {
							t.Fatal("!ok without closed")
						}
						if got != n {
							t.Fatalf("got %d messages before close, want %d", got, n)
						}
						return
					}
					if m.T != sim.Time(got) {
						t.Fatalf("message %d has T=%v", got, m.T)
					}
					got++
				case "drain":
					k, closed := p.drain(func(Message) {})
					got += k
					if closed {
						if got != n {
							t.Fatalf("got %d messages before close, want %d", got, n)
						}
						return
					}
				}
			}
		})
	}
}

// TestPipeParkWakeRace ping-pongs one message at a time between two
// goroutines through a pair of pipes. Every round trip forces a park on one
// side and a wake from the other, hammering the Dekker handshake between
// flush's parked-check and park's published-check.
func TestPipeParkWakeRace(t *testing.T) {
	const rounds = 50_000
	ab, ba := newPipe(), newPipe()
	go func() {
		for i := 0; i < rounds; i++ {
			m, ok, _ := ab.recv()
			if !ok {
				return
			}
			ba.send(m)
		}
		ba.close()
	}()
	for i := 0; i < rounds; i++ {
		ab.send(Message{T: sim.Time(i), Kind: KindSync})
		m, ok, closed := ba.recv()
		if !ok || closed {
			t.Fatalf("round %d: ok=%v closed=%v", i, ok, closed)
		}
		if m.T != sim.Time(i) {
			t.Fatalf("round %d: echoed T=%v", i, m.T)
		}
	}
	ab.close()
}

// TestPipeInterruptSticky interrupts a consumer blocked in
// recvInterruptible from another goroutine. The flag must be sticky —
// every later call returns intr immediately instead of blocking — while
// messages already queued still drain first.
func TestPipeInterruptSticky(t *testing.T) {
	p := newPipe()
	blocked := make(chan struct{})
	res := make(chan bool)
	go func() {
		close(blocked)
		_, _, _, intr := p.recvInterruptible()
		res <- intr
	}()
	<-blocked
	p.interrupt()
	if !<-res {
		t.Fatal("blocked receiver not interrupted")
	}
	// Sticky: never blocks again, but queued data still drains.
	p.send(Message{T: 5, Kind: KindSync})
	if m, ok, _, _ := p.recvInterruptible(); !ok || m.T != 5 {
		t.Fatalf("queued message lost after interrupt: ok=%v T=%v", ok, m.T)
	}
	for i := 0; i < 3; i++ {
		if _, ok, closed, intr := p.recvInterruptible(); ok || closed || !intr {
			t.Fatalf("call %d: ok=%v closed=%v intr=%v, want sticky intr", i, ok, closed, intr)
		}
	}
	// Interrupting concurrently with close stays safe and close wins for
	// plain recv.
	p.close()
	if _, ok, closed := p.recv(); ok || !closed {
		t.Fatal("recv after close: want closed")
	}
}

// TestPipeConcurrentInterrupters calls interrupt from many goroutines while
// the consumer loops; the gate must neither deadlock nor drop a wakeup.
func TestPipeConcurrentInterrupters(t *testing.T) {
	p := newPipe()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.interrupt()
		}()
	}
	for {
		_, ok, _, intr := p.recvInterruptible()
		if !ok && intr {
			break
		}
	}
	wg.Wait()
}
