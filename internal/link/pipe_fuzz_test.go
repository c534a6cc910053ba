package link

import (
	"testing"

	"repro/internal/sim"
)

// FuzzPipe drives one pipe through an arbitrary operation sequence decoded
// from the fuzz input and checks it against a trivial model: a slice plus a
// published-watermark and a closed flag. Every consumer path (tryRecv,
// drain, recv where it cannot block, recvInterruptible on a closed
// pipe) must observe exactly the published prefix of the pushed sequence, in
// order.
func FuzzPipe(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 0, 1, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 4, 4, 4, 4})
	f.Add([]byte{2, 3, 5, 2, 3, 0, 2, 1, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := newPipe()
		var model []sim.Time // pushed, in order
		published := 0       // prefix of model visible to the consumer
		read := 0            // prefix already consumed
		closed := false
		next := sim.Time(0)

		expect := func(m Message, ctx string) {
			if read >= published {
				t.Fatalf("%s returned a message beyond the published prefix", ctx)
			}
			if m.T != model[read] {
				t.Fatalf("%s: got T=%v want %v at position %d", ctx, m.T, model[read], read)
			}
			read++
		}

		for _, op := range ops {
			switch op % 6 {
			case 0: // push
				if closed {
					continue // send on closed panics by contract; not modeled
				}
				p.push(Message{T: next, Kind: KindSync})
				model = append(model, next)
				next++
			case 1: // flush (a no-op after close: close already published)
				p.flush()
				published = len(model)
			case 2: // tryRecv
				m, ok, cl := p.tryRecv()
				if ok {
					expect(m, "tryRecv")
				} else if read < published {
					t.Fatalf("tryRecv empty with %d published messages pending", published-read)
				} else if cl != (closed && read == len(model)) {
					t.Fatalf("tryRecv closed=%v, want %v", cl, closed && read == len(model))
				}
			case 3: // recv, where a message or the close is there to return
				if read == published && !closed {
					continue
				}
				m, ok, cl := p.recv()
				if ok {
					expect(m, "recv")
				} else if !cl || read < published {
					t.Fatalf("recv ok=false closed=%v with %d published messages pending", cl, published-read)
				}
			case 4: // drain
				n, cl := p.drain(func(m Message) { expect(m, "drain") })
				if n == 0 && read < published {
					t.Fatal("drain consumed nothing with published messages pending")
				}
				if cl != (n == 0 && closed && read == len(model)) {
					t.Fatalf("drain closed=%v unexpectedly", cl)
				}
			case 5: // close (publishes everything staged)
				if !closed {
					p.close()
					closed = true
					published = len(model)
				}
			}
			if got, want := p.empty(), published == read; got != want {
				t.Fatalf("empty=%v, want %v (published=%d read=%d)", got, want, published, read)
			}
		}

		// Drain to end-of-stream (or emptiness) and verify nothing is lost.
		p.close()
		published = len(model)
		for {
			m, ok, cl, _ := p.recvInterruptible()
			if !ok {
				if !cl {
					t.Fatal("recvInterruptible !ok without closed on a closed pipe")
				}
				break
			}
			expect(m, "final recvInterruptible")
		}
		if read != len(model) {
			t.Fatalf("consumed %d of %d pushed messages", read, len(model))
		}
	})
}
