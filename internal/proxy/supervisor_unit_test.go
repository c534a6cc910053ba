package proxy

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/sim"
)

func fastConfig(seed uint64) Config {
	return Config{
		Heartbeat:   10 * time.Millisecond,
		ReadTimeout: 200 * time.Millisecond,
		BackoffMin:  time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Linger:      200 * time.Millisecond,
		Seed:        seed,
	}
}

func newIdleSupervisor(id uint64) *Supervisor {
	s := NewSupervisor(fastConfig(id))
	_, rem := link.NewHalf("x", sim.Microsecond)
	s.AddChannel(0, rem, RawFrameCodec{})
	return s
}

// TestSupervisorIdleHeartbeatsAndReject drives an idle supervised session:
// heartbeats must flow in both directions on wall-clock time alone, a
// third connection must be refused with a typed reject frame, and context
// cancellation must tear everything down without leaking a goroutine.
func TestSupervisorIdleHeartbeatsAndReject(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	supA, supB := newIdleSupervisor(1), newIdleSupervisor(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aErr := make(chan error, 1)
	bErr := make(chan error, 1)
	go func() { aErr <- supA.Serve(ctx, ln) }()
	go func() { bErr <- supB.Dial(ctx, ln.Addr().String()) }()

	deadline := time.Now().Add(5 * time.Second)
	for supA.Counters().HeartbeatsRx == 0 || supB.Counters().HeartbeatsRx == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeats: server=%+v client=%+v", supA.Counters(), supB.Counters())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The session is live, so an extra peer gets a reject frame.
	extra, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(extra))
	if err != nil {
		t.Fatalf("reading reject: %v", err)
	}
	if f.kind != kindReject {
		t.Fatalf("extra connection got frame kind %d, want reject", f.kind)
	}
	extra.Close()

	cancel()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("server: got %v, want context.Canceled", err)
	}
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: got %v, want context.Canceled", err)
	}
	waitGoroutines(t, before)
}

// TestSupervisorGivesUpTyped: with nobody listening, the client must fail
// with ErrGaveUp after its attempt budget — quickly, and without leaking
// the channel collector goroutines.
func TestSupervisorGivesUpTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // guaranteed connection-refused
	cfg := fastConfig(3)
	cfg.MaxAttempts = 3
	sup := NewSupervisor(cfg)
	_, rem := link.NewHalf("x", sim.Microsecond)
	sup.AddChannel(0, rem, RawFrameCodec{})
	err = sup.Dial(context.Background(), addr)
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("got %v, want ErrGaveUp", err)
	}
	if c := sup.Counters(); c.DialFailures < 3 || c.BackoffNanos == 0 {
		t.Fatalf("counters after give-up: %+v", c)
	}
	waitGoroutines(t, before)
}

// TestSupervisorChannelMismatch: peers registering different channel sets
// must fail the handshake with ErrHandshake on both sides instead of
// exchanging frames for channels the other side cannot route.
func TestSupervisorChannelMismatch(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	supA := newIdleSupervisor(4) // one channel
	supB := NewSupervisor(fastConfig(5))
	_, remB0 := link.NewHalf("x", sim.Microsecond)
	_, remB1 := link.NewHalf("y", sim.Microsecond)
	supB.AddChannel(0, remB0, RawFrameCodec{})
	supB.AddChannel(1, remB1, RawFrameCodec{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aErr := make(chan error, 1)
	bErr := make(chan error, 1)
	go func() { aErr <- supA.Serve(ctx, ln) }()
	go func() { bErr <- supB.Dial(ctx, ln.Addr().String()) }()
	if err := <-aErr; !errors.Is(err, ErrHandshake) {
		t.Fatalf("server: got %v, want ErrHandshake", err)
	}
	if err := <-bErr; !errors.Is(err, ErrHandshake) {
		t.Fatalf("client: got %v, want ErrHandshake", err)
	}
	waitGoroutines(t, before)
}

// TestSupervisorRejectedPeerGivesUp: a second full supervisor dialing into
// an occupied server retries its budget and fails typed — never hangs.
func TestSupervisorRejectedPeerGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	supA, supB := newIdleSupervisor(6), newIdleSupervisor(7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aErr := make(chan error, 1)
	bErr := make(chan error, 1)
	go func() { aErr <- supA.Serve(ctx, ln) }()
	go func() { bErr <- supB.Dial(ctx, ln.Addr().String()) }()
	deadline := time.Now().Add(5 * time.Second)
	for supA.Counters().HeartbeatsRx == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never established")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cfg := fastConfig(8)
	cfg.MaxAttempts = 2
	supC := NewSupervisor(cfg)
	_, remC := link.NewHalf("x", sim.Microsecond)
	supC.AddChannel(0, remC, RawFrameCodec{})
	err = supC.Dial(ctx, ln.Addr().String())
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("intruding peer: got %v, want ErrGaveUp", err)
	}
	cancel()
	<-aErr
	<-bErr
}
