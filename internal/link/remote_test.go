package link

import (
	"testing"
	"time"
)

// TestPipeInterruptWakesBlockedReceiver is the cancellation contract the
// proxy transport relies on: a goroutine blocked in recvInterruptible must
// wake when interrupted, because nothing else (closing the socket included)
// unblocks a pipe wait.
func TestPipeInterruptWakesBlockedReceiver(t *testing.T) {
	p := newPipe()
	got := make(chan bool, 1)
	go func() {
		_, ok, closed, intr := p.recvInterruptible()
		got <- intr && !ok && !closed
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block
	p.interrupt()
	select {
	case v := <-got:
		if !v {
			t.Fatal("recvInterruptible returned, but not with intr=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("interrupt did not wake the blocked receiver")
	}
}

// TestPipeInterruptIsStickyAndDrainsFirst: queued messages still come out
// after an interrupt; only an empty queue reports intr, and it keeps doing
// so (the flag never resets).
func TestPipeInterruptIsStickyAndDrainsFirst(t *testing.T) {
	p := newPipe()
	p.send(Message{T: 1})
	p.send(Message{T: 2})
	p.interrupt()
	for want := 1; want <= 2; want++ {
		m, ok, _, intr := p.recvInterruptible()
		if !ok || intr || int(m.T) != want {
			t.Fatalf("drain %d: got T=%v ok=%v intr=%v", want, m.T, ok, intr)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok, closed, intr := p.recvInterruptible(); !intr || ok || closed {
			t.Fatalf("call %d after drain: ok=%v closed=%v intr=%v", i, ok, closed, intr)
		}
	}
}

// TestRemoteInterrupt covers the exported surface: Interrupt unblocks
// RecvInterruptible, and a clean close still reports ok=false, intr=false.
func TestRemoteInterrupt(t *testing.T) {
	_, rem := NewHalf("x", 1)
	done := make(chan bool, 1)
	go func() {
		_, ok, intr := rem.RecvInterruptible()
		done <- intr && !ok
	}()
	time.Sleep(10 * time.Millisecond)
	rem.Interrupt()
	select {
	case v := <-done:
		if !v {
			t.Fatal("RecvInterruptible returned without intr=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Remote.Interrupt did not unblock RecvInterruptible")
	}
	// CloseToLocal is idempotent.
	rem.CloseToLocal()
	rem.CloseToLocal()
}
