package nicsim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/pci"
	"repro/internal/proto"
	"repro/internal/sim"
)

// recorder captures messages a port sends, with the times they leave the
// NIC (send time plus hold).
type recorder struct {
	sched *sim.Scheduler
	msgs  []core.Message
	at    []sim.Time
}

func (r *recorder) Send(m core.Message, hold sim.Time) {
	r.msgs = append(r.msgs, m)
	r.at = append(r.at, r.sched.Now()+hold)
}

// rig builds a NIC with recorder ports on both sides.
func rig(p nicsim.Params) (*nicsim.NIC, *recorder, *recorder, *sim.Scheduler) {
	s := sim.NewScheduler(0)
	n := nicsim.New("nic", p)
	n.Attach(core.Env{Sched: s, Src: 1})
	n.Start(sim.Second)
	host := &recorder{sched: s}
	net := &recorder{sched: s}
	n.BindHost(host)
	n.BindNet(net)
	return n, host, net, s
}

// frameBytes builds a small encoded UDP frame of the given virtual size.
func frameBytes(virtual int) []byte {
	f := &proto.Frame{
		Eth:            proto.Ethernet{Dst: proto.MACFromID(2), Src: proto.MACFromID(1)},
		IP:             proto.IPv4{Src: proto.HostIP(1), Dst: proto.HostIP(2), Proto: proto.IPProtoUDP},
		UDP:            proto.UDP{SrcPort: 1, DstPort: 2},
		VirtualPayload: virtual,
	}
	f.Seal()
	return proto.AppendFrame(nil, f)
}

func TestTxPathTiming(t *testing.T) {
	p := nicsim.DefaultParams()
	nic, host, net, s := rig(p)
	b := frameBytes(1400)
	nic.HostSink().Deliver(0, &pci.TxBatch{Subs: []pci.TxSubmit{{ID: 1, Frame: b}}})
	s.Run()
	if len(net.msgs) != 1 {
		t.Fatalf("net got %d frames", len(net.msgs))
	}
	// Departure = TxDMA + serialization of the TRUE wire length (virtual
	// payload included): 1442B at 10G = 1153.6ns.
	want := p.TxDMA + sim.TransmitTime(proto.RawWireLen(b), p.Rate)
	if net.at[0] != want {
		t.Fatalf("departure at %v, want %v", net.at[0], want)
	}
	// TxDone accompanies the departure.
	if len(host.msgs) != 1 {
		t.Fatalf("host got %d messages", len(host.msgs))
	}
	if _, ok := host.msgs[0].(*pci.TxDone); !ok {
		t.Fatalf("expected *TxDone, got %T", host.msgs[0])
	}
}

func TestTxSerializationQueues(t *testing.T) {
	p := nicsim.DefaultParams()
	nic, _, net, s := rig(p)
	b := frameBytes(1400)
	// Two frames submitted back to back must serialize, not overlap.
	nic.HostSink().Deliver(0, &pci.TxBatch{Subs: []pci.TxSubmit{{ID: 1, Frame: b}}})
	nic.HostSink().Deliver(0, &pci.TxBatch{Subs: []pci.TxSubmit{{ID: 2, Frame: b}}})
	s.Run()
	if len(net.msgs) != 2 {
		t.Fatalf("net got %d frames", len(net.msgs))
	}
	gap := net.at[1] - net.at[0]
	want := sim.TransmitTime(proto.RawWireLen(b), p.Rate)
	if gap != want {
		t.Fatalf("inter-departure gap %v, want serialization time %v", gap, want)
	}
}

func TestRxPathAndTimestamp(t *testing.T) {
	p := nicsim.DefaultParams()
	p.PHCDriftPPM = 100
	nic, host, _, s := rig(p)
	arrive := 1 * sim.Millisecond
	s.At(arrive, func() {
		nic.NetSink().Deliver(arrive, proto.GetWireFrame(frameBytes(0)))
	})
	s.Run()
	if len(host.msgs) != 1 {
		t.Fatalf("host got %d messages", len(host.msgs))
	}
	batch := host.msgs[0].(*pci.RxBatch)
	if len(batch.Pkts) != 1 {
		t.Fatalf("unmoderated rx batch has %d packets, want 1", len(batch.Pkts))
	}
	rx := batch.Pkts[0]
	// Delivered after RxDMA.
	if host.at[0] != arrive+p.RxDMA {
		t.Fatalf("rx delivered at %v, want %v", host.at[0], arrive+p.RxDMA)
	}
	// HW timestamp taken at wire arrival on the drifting, quantized PHC.
	want := nic.PHC(arrive)
	if rx.HWTime != want {
		t.Fatalf("hw timestamp %v, want %v", rx.HWTime, want)
	}
	if rx.HWTime%p.PHCQuantum != 0 {
		t.Fatalf("timestamp %v not quantized to %v", rx.HWTime, p.PHCQuantum)
	}
}

func TestIRQModerationBatches(t *testing.T) {
	p := nicsim.DefaultParams()
	p.IRQModeration = 20 * sim.Microsecond
	nic, host, _, s := rig(p)
	// Three frames arrive 1us apart; one interrupt delivers all three.
	for i := 0; i < 3; i++ {
		at := sim.Time(i) * sim.Microsecond
		s.At(at, func() { nic.NetSink().Deliver(at, proto.GetWireFrame(frameBytes(0))) })
	}
	s.Run()
	// One interrupt crosses the PCI channel carrying all three frames.
	if len(host.msgs) != 1 {
		t.Fatalf("host got %d messages", len(host.msgs))
	}
	batch := host.msgs[0].(*pci.RxBatch)
	if len(batch.Pkts) != 3 {
		t.Fatalf("batch has %d packets, want 3", len(batch.Pkts))
	}
	// Delivered at first arrival + moderation + DMA.
	if want := p.IRQModeration + p.RxDMA; host.at[0] != want {
		t.Fatalf("batch delivered at %v, want %v", host.at[0], want)
	}
	// Hardware timestamps still reflect individual wire arrivals.
	t0 := batch.Pkts[0].HWTime
	t2 := batch.Pkts[2].HWTime
	if t2 <= t0 {
		t.Fatal("batched frames should keep distinct hw timestamps")
	}
}

func TestPHCReadAndServo(t *testing.T) {
	p := nicsim.DefaultParams()
	p.PHCDriftPPM = 50
	nic, host, _, s := rig(p)
	nic.HostSink().Deliver(0, pci.PHCRead{ID: 9})
	s.Run()
	v := host.msgs[0].(pci.PHCValue)
	if v.ID != 9 {
		t.Fatalf("PHC read id %d", v.ID)
	}
	// Servo: step and frequency-correct; future readings track true time.
	now := s.Now()
	err := nic.PHC(now) - now
	nic.SetPHCOffset(-err)
	nic.AdjPHCFreq(-50)
	later := now + sim.Second
	diff := nic.PHC(later) - later
	if diff < 0 {
		diff = -diff
	}
	if diff > p.PHCQuantum {
		t.Fatalf("residual PHC error %v after servo correction", diff)
	}
}

func TestFreqAdjDoesNotJumpPhase(t *testing.T) {
	p := nicsim.DefaultParams()
	nic, _, _, s := rig(p)
	s.RunBefore(100 * sim.Millisecond)
	before := nic.PHC(s.Now())
	nic.AdjPHCFreq(100) // retune must not retroactively shift the clock
	after := nic.PHC(s.Now())
	if before != after {
		t.Fatalf("frequency adjustment jumped the phase: %v -> %v", before, after)
	}
}

func TestCostAndTax(t *testing.T) {
	p := nicsim.DefaultParams()
	nic, _, _, s := rig(p)
	nic.HostSink().Deliver(0, &pci.TxBatch{Subs: []pci.TxSubmit{{ID: 1, Frame: frameBytes(0)}}})
	s.Run()
	if nic.Cost().BusyNanos() == 0 {
		t.Fatal("no cost accounted")
	}
	if nic.TimeTaxNsPerVirtualUs() <= 0 {
		t.Fatal("missing time tax")
	}
	if nic.TxFrames != 1 {
		t.Fatalf("TxFrames = %d", nic.TxFrames)
	}
}
