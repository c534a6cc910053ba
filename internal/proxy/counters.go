package proxy

import (
	"io"
	"sync/atomic"

	"repro/internal/stats"
)

// Counters is a snapshot of one supervisor's transport activity — the
// scale-out analog of link.Counters: where those feed the WTPG with
// per-adapter synchronization cost, these expose what the wall-clock
// transport underneath is doing (frames, bytes, heartbeats, reconnects,
// time lost to backoff).
type Counters struct {
	Dials        uint64 `json:"dials"`    // connection attempts (client) / accepts (server)
	DialFailures uint64 `json:"dialfail"` // failed connection attempts
	Reconnects   uint64 `json:"reconn"`   // sessions re-established after a failure
	FramesTx     uint64 `json:"ftx"`      // frames written (data, sync, EOS)
	FramesRx     uint64 `json:"frx"`      // frames read (all kinds)
	BytesTx      uint64 `json:"btx"`      // bytes written to the socket
	BytesRx      uint64 `json:"brx"`      // bytes read from the socket
	HeartbeatsTx uint64 `json:"hbtx"`     // idle heartbeats sent
	HeartbeatsRx uint64 `json:"hbrx"`     // heartbeats received
	AcksTx       uint64 `json:"acktx"`    // ack frames sent
	AcksRx       uint64 `json:"ackrx"`    // ack frames received
	Retransmits  uint64 `json:"retx"`     // frames re-sent during a post-reconnect resync
	Corrupt      uint64 `json:"corrupt"`  // frames rejected by checksum/validation
	BackoffNanos uint64 `json:"backoff"`  // wall-clock nanoseconds spent in reconnect backoff
}

// ctrs is the live, atomically-updated mirror of Counters. Reader, writer,
// and supervision loop all bump fields concurrently.
type ctrs struct {
	dials, dialFailures, reconnects atomic.Uint64
	framesTx, framesRx              atomic.Uint64
	bytesTx, bytesRx                atomic.Uint64
	heartbeatsTx, heartbeatsRx      atomic.Uint64
	acksTx, acksRx                  atomic.Uint64
	retransmits, corrupt, backoff   atomic.Uint64
}

func (c *ctrs) snapshot() Counters {
	return Counters{
		Dials:        c.dials.Load(),
		DialFailures: c.dialFailures.Load(),
		Reconnects:   c.reconnects.Load(),
		FramesTx:     c.framesTx.Load(),
		FramesRx:     c.framesRx.Load(),
		BytesTx:      c.bytesTx.Load(),
		BytesRx:      c.bytesRx.Load(),
		HeartbeatsTx: c.heartbeatsTx.Load(),
		HeartbeatsRx: c.heartbeatsRx.Load(),
		AcksTx:       c.acksTx.Load(),
		AcksRx:       c.acksRx.Load(),
		Retransmits:  c.retransmits.Load(),
		Corrupt:      c.corrupt.Load(),
		BackoffNanos: c.backoff.Load(),
	}
}

// CountersTable renders named counter snapshots as an aligned table, one
// supervisor per row — the same presentation the experiment harnesses use
// for paper-style results.
func CountersTable(names []string, snaps []Counters) *stats.Table {
	t := stats.NewTable("proxy", "dials", "reconn", "ftx", "frx", "btx", "brx",
		"hb", "acks", "retx", "corrupt", "backoff_ms")
	for i, c := range snaps {
		t.Row(names[i], c.Dials, c.Reconnects, c.FramesTx, c.FramesRx,
			c.BytesTx, c.BytesRx, c.HeartbeatsTx, c.AcksTx, c.Retransmits,
			c.Corrupt, c.BackoffNanos/1e6)
	}
	return t
}

// countWriter / countReader count raw socket bytes at the I/O boundary, so
// the byte counters include framing, heartbeats, and handshakes.
type countWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

type countReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}
