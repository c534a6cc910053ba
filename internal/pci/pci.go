// Package pci defines the message vocabulary on the channel between a
// detailed host simulator and its NIC simulator — the analog of the
// SimBricks PCI channel. Frames cross as honest byte strings (the encoded
// Ethernet frames of package proto); control messages model doorbells,
// completions, and PTP hardware-clock reads.
package pci

import (
	"sync"

	"repro/internal/sim"
)

// TxSubmit is a host-to-NIC transmit doorbell: the frame has been placed in
// a descriptor ring and is ready for DMA.
type TxSubmit struct {
	ID    uint64
	Frame []byte
	// Timestamp requests a hardware TX timestamp (PTP event messages).
	Timestamp bool
}

// TxDone is a NIC-to-host transmit completion. HWTime carries the PTP
// hardware clock value at wire departure when requested.
type TxDone struct {
	ID     uint64
	HWTime sim.Time
}

// RxPacket is a NIC-to-host received frame, DMA'd into a host buffer.
// HWTime is the PTP hardware clock value at wire arrival.
type RxPacket struct {
	Frame  []byte
	HWTime sim.Time
}

// PHCRead is a host-to-NIC read of the PTP hardware clock register.
type PHCRead struct {
	ID uint64
}

// PHCValue is the NIC's reply to a PHCRead.
type PHCValue struct {
	ID     uint64
	HWTime sim.Time
}

// DefaultLatency is the PCI channel latency used throughout (the SimBricks
// default of 500 ns).
const DefaultLatency = 500 * sim.Nanosecond

// TxBatch carries one or more TxSubmit descriptors in a single channel
// message — one doorbell write covering a ring's worth of descriptors.
// Batches are pooled: the receiver returns them with PutTxBatch after
// draining Subs. The pools below are sync.Pools (not per-component free
// lists) because the PCI channel crosses runner goroutines in coupled runs.
type TxBatch struct {
	Subs []TxSubmit
}

// Count implements link.MultiMessage: a batch occupies one event but counts
// as len(Subs) messages for channel accounting.
func (b *TxBatch) Count() int { return len(b.Subs) }

var txBatchPool = sync.Pool{New: func() interface{} { return new(TxBatch) }}

// GetTxBatch returns an empty pooled batch.
func GetTxBatch() *TxBatch { return txBatchPool.Get().(*TxBatch) }

// PutTxBatch recycles a drained batch, dropping frame references.
func PutTxBatch(b *TxBatch) {
	for i := range b.Subs {
		b.Subs[i] = TxSubmit{}
	}
	b.Subs = b.Subs[:0]
	txBatchPool.Put(b)
}

// RxBatch carries the frames of one interrupt: every packet DMA'd before
// the IRQ fires crosses in a single message. The receiver returns the batch
// with PutRxBatch after draining Pkts.
type RxBatch struct {
	Pkts []RxPacket
}

// Count implements link.MultiMessage.
func (b *RxBatch) Count() int { return len(b.Pkts) }

var rxBatchPool = sync.Pool{New: func() interface{} { return new(RxBatch) }}

// GetRxBatch returns an empty pooled batch.
func GetRxBatch() *RxBatch { return rxBatchPool.Get().(*RxBatch) }

// PutRxBatch recycles a drained batch, dropping frame references.
func PutRxBatch(b *RxBatch) {
	for i := range b.Pkts {
		b.Pkts[i] = RxPacket{}
	}
	b.Pkts = b.Pkts[:0]
	rxBatchPool.Put(b)
}

var txDonePool = sync.Pool{New: func() interface{} { return new(TxDone) }}

// GetTxDone returns a pooled completion; the receiver returns it with
// PutTxDone after reading its fields.
func GetTxDone() *TxDone { return txDonePool.Get().(*TxDone) }

// PutTxDone recycles a consumed completion.
func PutTxDone(d *TxDone) {
	*d = TxDone{}
	txDonePool.Put(d)
}
