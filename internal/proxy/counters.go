package proxy

import (
	"io"

	"repro/internal/stats"
)

// Counters is what one Forward call moved over its connection — the
// scale-out analog of link.Counters: where those feed the WTPG with
// per-adapter synchronization cost, these show the wall-clock transport
// underneath.
type Counters struct {
	FramesTx uint64 `json:"ftx"` // sync, data and EOS frames written
	FramesRx uint64 `json:"frx"` // sync, data and EOS frames read
	BytesTx  uint64 `json:"btx"` // bytes written to the socket, hello included
	BytesRx  uint64 `json:"brx"` // bytes read from the socket, hello included
}

// CountersTable renders named counter snapshots as an aligned table, one
// connection end per row — the same presentation the experiment harnesses
// use for paper-style results.
func CountersTable(names []string, snaps []Counters) *stats.Table {
	t := stats.NewTable("proxy", "ftx", "frx", "btx", "brx")
	for i, c := range snaps {
		t.Row(names[i], c.FramesTx, c.FramesRx, c.BytesTx, c.BytesRx)
	}
	return t
}

// countWriter / countReader count raw socket bytes at the I/O boundary, so
// the byte counters include framing and the hello. Each is used by one
// goroutine at a time.
type countWriter struct {
	w io.Writer
	n *uint64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += uint64(n)
	return n, err
}

type countReader struct {
	r io.Reader
	n *uint64
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += uint64(n)
	return n, err
}
