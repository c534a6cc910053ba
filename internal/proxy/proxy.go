// Package proxy tunnels SplitSim channels between OS processes over TCP —
// the SimBricks proxy mechanism the paper relies on for scaling
// simulations out across machines ("scales out with proxy components that
// forward messages between simulator instances across hosts").
//
// One spliced channel half (link.NewHalf) lives in each process; Forward
// carries the messages of every half it is given over one connection in a
// length-prefixed, CRC32-C-checksummed framing (wire protocol v4, see
// wire.go and DESIGN.md). The conservative synchronization protocol rides
// along unchanged: data and sync messages carry the sender's virtual
// timestamps, so the receiver's horizon computation is identical to the
// in-process case, and transport latency costs wall-clock time only.
//
// A proxy only forwards. A broken connection or a corrupt frame fails the
// run with a typed error on both sides; recovery is a re-run.
package proxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/link"
)

// Forward carries chans over conn until every channel has ended both ways,
// then closes conn and returns what it moved. chans[i] travels as wire
// channel i, so the peer passes its halves of the same channels in the same
// order; the caller dials or accepts conn.
//
// Forward exchanges one hello (magic, protocol version, channel count) and
// fails with ErrHandshake if the peers disagree. It then runs one collector
// goroutine per channel feeding a single writer, which flushes whenever it
// runs idle, and one reader that injects the peer's sync, data and EOS
// frames. It returns nil once every local EOS is written and every peer EOS
// is read. Any I/O error before that — ctx ending included — wraps ErrClosed
// with its cause, and a frame that fails validation returns ErrCorrupt.
// Either failure stops the collectors and closes every channel toward the
// local runner, so the local run finishes (its results void) instead of
// waiting for messages that will not come.
func Forward(ctx context.Context, conn net.Conn, chans []*link.Remote) (Counters, error) {
	f := &forwarder{
		conn:  conn,
		chans: chans,
		// A burst of messages queues here while the writer is in a
		// socket write, so the writer frames it in one flush.
		out:  make(chan outMsg, 64),
		stop: make(chan struct{}),
	}
	defer conn.Close()
	stopCtx := context.AfterFunc(ctx, func() {
		f.fail(fmt.Errorf("%w: %w", ErrClosed, ctx.Err()))
	})
	defer stopCtx()

	br := bufio.NewReader(countReader{r: conn, n: &f.ctrs.BytesRx})
	err := f.handshake(br)
	if err == nil {
		for i, r := range chans {
			f.wg.Add(1)
			go f.collect(uint16(i), r)
		}
		f.wg.Add(1)
		go f.write()
		err = f.read(br)
	}
	if err != nil {
		f.fail(err)
		// The reader has returned, so nothing injects any more: closing
		// toward the local runner cannot race an Inject.
		for _, r := range chans {
			r.CloseToLocal()
		}
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctrs, f.err
}

// forwarder is the state of one Forward call.
type forwarder struct {
	conn  net.Conn
	chans []*link.Remote
	out   chan outMsg   // collectors → writer
	stop  chan struct{} // closed on the first failure
	wg    sync.WaitGroup

	mu  sync.Mutex
	err error // first failure

	// Written by the reader (Rx) and the writer (Tx) only, and read once
	// both have returned.
	ctrs Counters
}

// outMsg is one message a collector hands the writer; eos marks the end of
// the local stream.
type outMsg struct {
	ch  uint16
	m   link.Message
	eos bool
}

// fail records the first failure, closes the connection (unblocking the
// reader and the writer) and interrupts the collectors.
func (f *forwarder) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	f.err = err
	close(f.stop)
	f.conn.Close()
	for _, r := range f.chans {
		r.Interrupt()
	}
}

// ioErr types a read or write failure: validation failures stay
// ErrCorrupt, every other error becomes ErrClosed wrapping its cause.
func ioErr(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrClosed, err)
}

// handshake writes our hello and checks the peer's.
func (f *forwarder) handshake(br *bufio.Reader) error {
	if len(f.chans) > 1<<16-1 {
		return fmt.Errorf("%w: %d channels, the wire carries at most %d", ErrHandshake, len(f.chans), 1<<16-1)
	}
	cw := countWriter{w: f.conn, n: &f.ctrs.BytesTx}
	if _, err := cw.Write(appendHelloFrame(nil, len(f.chans))); err != nil {
		return ioErr(err)
	}
	b, err := readRaw(br, nil)
	if err != nil {
		return ioErr(err)
	}
	fr, err := parseFrame(b)
	if err != nil {
		if v, ok := olderHello(b); ok && v != protoVersion {
			return fmt.Errorf("%w: peer speaks wire protocol v%d, want v%d", ErrHandshake, v, protoVersion)
		}
		return err
	}
	if fr.kind != kindHello {
		return fmt.Errorf("%w: expected hello, got frame kind %d", ErrHandshake, fr.kind)
	}
	n, err := parseHello(fr.payload)
	if err != nil {
		return err
	}
	if n != len(f.chans) {
		return fmt.Errorf("%w: peer has %d channels, we have %d", ErrHandshake, n, len(f.chans))
	}
	return nil
}

// collect hands every message the local endpoint of channel ch sends to the
// writer, ending with its EOS, until the stream ends or Forward fails.
func (f *forwarder) collect(ch uint16, r *link.Remote) {
	defer f.wg.Done()
	for {
		m, ok, intr := r.RecvInterruptible()
		if intr {
			return
		}
		select {
		case f.out <- outMsg{ch: ch, m: m, eos: !ok}:
		case <-f.stop:
			return
		}
		if !ok {
			return
		}
	}
}

// write frames the collectors' messages onto the connection until every
// local EOS is out, flushing whenever no message is waiting.
func (f *forwarder) write() {
	defer f.wg.Done()
	bw := bufio.NewWriter(countWriter{w: f.conn, n: &f.ctrs.BytesTx})
	var buf, scratch []byte
	for open := len(f.chans); open > 0; {
		var o outMsg
		select {
		case o = <-f.out:
		default:
			if err := bw.Flush(); err != nil {
				f.fail(ioErr(err))
				return
			}
			select {
			case o = <-f.out:
			case <-f.stop:
				return
			}
		}
		fr := frame{kind: kindSync, ch: o.ch, t: o.m.T}
		switch {
		case o.eos:
			fr = frame{kind: kindEOS, ch: o.ch}
			open--
		case o.m.Kind == link.KindData:
			var err error
			if scratch, err = encodePayload(scratch[:0], o.m.Payload); err != nil {
				f.fail(fmt.Errorf("proxy: channel %d: %w", o.ch, err))
				return
			}
			fr.kind, fr.hold, fr.sub, fr.payload = kindData, o.m.Hold, o.m.Sub, scratch
		}
		buf = appendWireFrame(buf[:0], fr)
		if _, err := bw.Write(buf); err != nil {
			f.fail(ioErr(err))
			return
		}
		f.ctrs.FramesTx++
	}
	if err := bw.Flush(); err != nil {
		f.fail(ioErr(err))
	}
}

// read injects the peer's frames into the local endpoints until every peer
// EOS is read. An EOS closes its channel toward the local runner here, on
// the one goroutine that injects.
func (f *forwarder) read(br *bufio.Reader) error {
	ended := make([]bool, len(f.chans))
	var buf []byte
	for open := len(f.chans); open > 0; {
		fr, b, err := readFrame(br, buf)
		buf = b
		if err != nil {
			return ioErr(err)
		}
		if fr.kind == kindHello || int(fr.ch) >= len(f.chans) || ended[fr.ch] {
			return fmt.Errorf("%w: unexpected kind %d frame on channel %d of %d",
				ErrCorrupt, fr.kind, fr.ch, len(f.chans))
		}
		f.ctrs.FramesRx++
		r := f.chans[fr.ch]
		switch fr.kind {
		case kindSync:
			r.Inject(link.Message{T: fr.t, Kind: link.KindSync})
		case kindData:
			r.Inject(link.Message{T: fr.t, Hold: fr.hold, Kind: link.KindData, Sub: fr.sub, Payload: decodePayload(fr.payload)})
		case kindEOS:
			ended[fr.ch] = true
			r.CloseToLocal()
			open--
		}
	}
	return nil
}
