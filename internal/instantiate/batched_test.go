package instantiate_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// batchedRun builds a detailed host behind a switch, bursts four echo
// requests at it from a protocol-level peer, runs in the given mode, and
// returns a digest of every observable delivery (virtual timestamps and
// payload sizes at both applications, plus final packet counters), the PCI
// channel's logical message count, the executed event count (sequential mode
// only), and the post-run live-frame count.
func batchedRun(t *testing.T, mode string, moderation sim.Time) (digest string, pciMsgs, events, live uint64) {
	t.Helper()
	n := netsim.New("net", 1)
	sw := n.AddSwitch("sw")
	ip := proto.HostIP(5)
	ext := n.AddExternal(sw, "h", 10*sim.Gbps, ip)
	peer := n.AddHost("peer", proto.HostIP(6))
	n.ConnectHostSwitch(peer, sw, 10*sim.Gbps, sim.Microsecond)
	n.ComputeRoutes()

	s := orch.New()
	s.Add(n)
	np := nicsim.DefaultParams()
	np.IRQModeration = moderation
	dh := instantiate.NewDetailedHost("h", ip, hostsim.QemuParams(), np, 3)
	dh.Wire(s, n, ext)

	var b strings.Builder
	dh.Host.BindUDP(7, func(src proto.IP, sport uint16, p []byte, virt int) {
		fmt.Fprintf(&b, "h rx %d %d %d\n", dh.Host.Now(), len(p), virt)
		dh.Host.SendUDP(src, 7, sport, p, virt)
	})
	peer.BindUDP(9, func(_ proto.IP, _ uint16, p []byte, virt int) {
		fmt.Fprintf(&b, "peer rx %d %d %d\n", peer.Now(), len(p), virt)
	})
	peer.SetApp(netsim.AppFunc(func(h *netsim.Host) {
		for i := 0; i < 4; i++ {
			d := sim.Time(i) * sim.Microsecond
			h.After(d, func() { h.SendUDP(ip, 9, 7, []byte("ping"), 256) })
		}
	}))

	end := 5 * sim.Millisecond
	switch mode {
	case "seq":
		events = s.RunSequential(end).Processed()
	case "coupled":
		if err := s.RunCoupled(end); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	case "placed":
		// Host and NIC co-located, network on its own runner.
		p := decomp.Placement{Name: "2g", Groups: []int{0, 1, 1}}
		if err := s.RunParallel(end, p); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}

	fmt.Fprintf(&b, "counters h.rx=%d h.tx=%d nic.rx=%d nic.tx=%d sw.rx=%d peer.rx=%d\n",
		dh.Host.RxPackets, dh.Host.TxPackets, dh.NIC.RxFrames, dh.NIC.TxFrames,
		sw.RxPackets, peer.RxPackets)
	_, links := s.ModelGraph(end)
	// Wire registers the PCI connection first, so links[0] is host<->NIC.
	return b.String(), links[0].Msgs, events, s.LiveFrames()
}

// TestBatchedNICDeliveryBitIdentical proves the tentpole invariant for the
// batched PCI path: with interrupt moderation coalescing RX frames into
// multi-packet batch messages, every run mode still observes the identical
// event sequence — same virtual timestamps, same payloads, same counters —
// and no mode leaks a pooled frame.
func TestBatchedNICDeliveryBitIdentical(t *testing.T) {
	const moderation = 20 * sim.Microsecond
	ref, _, _, refLive := batchedRun(t, "seq", moderation)
	if refLive != 0 {
		t.Fatalf("seq: %d frames live after run", refLive)
	}
	if !strings.Contains(ref, "peer rx") || !strings.Contains(ref, "h rx") {
		t.Fatalf("reference run carried no traffic:\n%s", ref)
	}
	for _, mode := range []string{"coupled", "placed"} {
		got, _, _, live := batchedRun(t, mode, moderation)
		if live != 0 {
			t.Fatalf("%s: %d frames live after run", mode, live)
		}
		if got != ref {
			t.Fatalf("%s digest differs from sequential:\n--- seq ---\n%s--- %s ---\n%s",
				mode, ref, mode, got)
		}
	}
}

// TestBatchedNICDeliveryCutsPCIMessages proves the batching is real on the
// channel without distorting the decomposition model. Two things must hold
// at once:
//
//   - the scheduler executes fewer events: the four moderated RX frames
//     share one NIC DMA-complete event and one PCI channel delivery instead
//     of four of each (exactly 6 fewer events, everything else equal);
//   - the link's logical message counter does NOT shrink, because batches
//     implement link.MultiMessage and channel accounting (credits, model
//     graph Msgs) deliberately counts the frames inside, keeping the
//     performance model's inputs placement-independent.
func TestBatchedNICDeliveryCutsPCIMessages(t *testing.T) {
	_, unmodMsgs, unmodEvents, _ := batchedRun(t, "seq", 0)
	_, modMsgs, modEvents, _ := batchedRun(t, "seq", 20*sim.Microsecond)
	if modEvents != unmodEvents-6 {
		t.Fatalf("scheduler events: moderated %d, unmoderated %d, want exactly 6 fewer",
			modEvents, unmodEvents)
	}
	if modMsgs != unmodMsgs {
		t.Fatalf("logical PCI messages: moderated %d, unmoderated %d, want equal (batches count their frames)",
			modMsgs, unmodMsgs)
	}
}
