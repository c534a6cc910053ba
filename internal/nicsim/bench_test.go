package nicsim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
)

// drainPort is a recycling sink for NIC output: it returns every pooled
// message to its pool immediately, the way the real host/network peers do,
// so the benchmarks measure the NIC path itself at steady state.
type drainPort struct{ n int }

func (d *drainPort) Send(m core.Message) {
	d.n++
	switch v := m.(type) {
	case *pci.RxBatch:
		pci.PutRxBatch(v)
	case *pci.TxDone:
		pci.PutTxDone(v)
	case *proto.WireFrame:
		proto.PutWireFrame(v)
	}
}

// benchNIC builds a NIC with recycling ports on both sides.
func benchNIC(p nicsim.Params) (*nicsim.NIC, *drainPort, *drainPort, *sim.Scheduler) {
	s := sim.NewScheduler(0)
	n := nicsim.New("nic", p)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(sim.Time(1) << 62)
	host := &drainPort{}
	net := &drainPort{}
	n.BindHost(host)
	n.BindNet(net)
	return n, host, net, s
}

// BenchmarkSubstrateNICTx measures one doorbell-to-wire transmit per op:
// a pooled TxBatch crosses the PCI boundary, the frame serializes out the
// Ethernet port, and the TxDone completion returns.
func BenchmarkSubstrateNICTx(b *testing.B) {
	nic, _, _, s := benchNIC(nicsim.DefaultParams())
	fb := frameBytes(1400)
	sink := nic.HostSink()
	op := func() {
		tb := pci.GetTxBatch()
		tb.Subs = append(tb.Subs, pci.TxSubmit{ID: 1, Frame: fb})
		sink.Deliver(s.Now(), tb)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkSubstrateNICRx measures one wire-to-host receive per op: an
// encoded frame arrives, is hardware-timestamped, DMAs up after RxDMA, and
// crosses the PCI boundary as a single-entry RxBatch.
func BenchmarkSubstrateNICRx(b *testing.B) {
	nic, _, _, s := benchNIC(nicsim.DefaultParams())
	fb := frameBytes(1400)
	sink := nic.NetSink()
	op := func() {
		sink.Deliver(s.Now(), proto.GetWireFrame(fb))
		s.Run()
	}
	for i := 0; i < 64; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestSubstrateNICZeroAlloc asserts both NIC directions run allocation-free
// at steady state: pooled batches, pooled completions, recycled transmit
// descriptors, and typed delivery events.
func TestSubstrateNICZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	nic, _, _, s := benchNIC(nicsim.DefaultParams())
	fb := frameBytes(1400)
	hostSink := nic.HostSink()
	netSink := nic.NetSink()
	tx := func() {
		tb := pci.GetTxBatch()
		tb.Subs = append(tb.Subs, pci.TxSubmit{ID: 1, Frame: fb})
		hostSink.Deliver(s.Now(), tb)
		s.Run()
	}
	rx := func() {
		netSink.Deliver(s.Now(), proto.GetWireFrame(fb))
		s.Run()
	}
	for i := 0; i < 64; i++ {
		tx()
		rx()
	}
	if avg := testing.AllocsPerRun(200, tx); avg != 0 {
		t.Fatalf("NIC tx path allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, rx); avg != 0 {
		t.Fatalf("NIC rx path allocates %.2f/op, want 0", avg)
	}
}
