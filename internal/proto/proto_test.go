package proto

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestMACString pins the locally administered address MACFromID derives.
func TestMACString(t *testing.T) {
	if got, want := MACFromID(0x01020304), (MAC{0x02, 0x00, 0x01, 0x02, 0x03, 0x04}); got != want {
		t.Errorf("MACFromID = %x, want %x", got, want)
	}
}

func TestIPString(t *testing.T) {
	if got := HostIP(258).String(); got != "10.0.1.2" {
		t.Errorf("HostIP(258) = %q, want 10.0.1.2", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16) bool {
		h := Ethernet{Dst: dst, Src: src, EtherType: et}
		b := AppendEthernet(nil, h)
		got, rest, err := ParseEthernet(b)
		return err == nil && got == h && len(rest) == 0 && len(b) == EthernetLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEthernetTruncated(t *testing.T) {
	if _, _, err := ParseEthernet(make([]byte, 13)); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, totalLen, id uint16, ttl uint8, src, dst uint32) bool {
		h := IPv4{TOS: tos, TotalLen: totalLen, ID: id, TTL: ttl,
			Proto: IPProtoUDP, Src: IP(src), Dst: IP(dst)}
		b := AppendIPv4(nil, h)
		got, rest, err := ParseIPv4(b)
		return err == nil && got == h && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TOS: 0, TotalLen: 100, TTL: 64, Proto: IPProtoTCP, Src: 1, Dst: 2}
	b := AppendIPv4(nil, h)
	b[8] ^= 0xff // corrupt TTL
	if _, _, err := ParseIPv4(b); err != ErrChecksum {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestIPv4ECN(t *testing.T) {
	h := IPv4{TOS: 0xfc}
	h = h.WithECN(ECNECT0)
	if h.ECN() != ECNECT0 || h.TOS != 0xfe {
		t.Errorf("WithECN(ECT0): TOS = %#x, ECN = %d", h.TOS, h.ECN())
	}
	h = h.WithECN(ECNCE)
	if h.ECN() != ECNCE {
		t.Errorf("ECN = %d, want CE", h.ECN())
	}
}

func TestUDPRoundTrip(t *testing.T) {
	f := func(sp, dp, l uint16) bool {
		h := UDP{SrcPort: sp, DstPort: dp, Length: l}
		b := AppendUDP(nil, h)
		got, rest, err := ParseUDP(b)
		return err == nil && got == h && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16) bool {
		h := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: uint16(flags), Window: win}
		b := AppendTCP(nil, h)
		got, rest, err := ParseTCP(b)
		return err == nil && got == h && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPFlags(t *testing.T) {
	h := TCP{Flags: TCPSyn | TCPAck | TCPEce | TCPCwr}
	b := AppendTCP(nil, h)
	got, _, err := ParseTCP(b)
	if err != nil || got.Flags != TCPSyn|TCPAck|TCPEce|TCPCwr {
		t.Errorf("flags = %#x, err = %v", got.Flags, err)
	}
}

func TestFrameRoundTripUDP(t *testing.T) {
	f := &Frame{
		Eth:     Ethernet{Dst: MACFromID(2), Src: MACFromID(1)},
		IP:      IPv4{Src: HostIP(1), Dst: HostIP(2), Proto: IPProtoUDP},
		UDP:     UDP{SrcPort: 1234, DstPort: PortKV},
		Payload: AppendKV(nil, KVMsg{Op: KVGet, Key: 42, Client: 7, Seq: 9}),
	}
	f.Seal()
	b := AppendFrame(nil, f)
	got, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.IP != f.IP || got.UDP != f.UDP || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("frame mismatch:\n got %+v\nwant %+v", got, f)
	}
	if got.WireLen() != f.WireLen() {
		t.Fatalf("wire length %d != %d", got.WireLen(), f.WireLen())
	}
}

func TestFrameVirtualPayload(t *testing.T) {
	f := &Frame{
		Eth:            Ethernet{Dst: MACFromID(2), Src: MACFromID(1)},
		IP:             IPv4{Src: HostIP(1), Dst: HostIP(2), Proto: IPProtoTCP},
		TCP:            TCP{SrcPort: 40000, DstPort: PortBulk, Seq: 1000},
		VirtualPayload: 1400,
	}
	f.Seal()
	b := AppendFrame(nil, f)
	// Only headers hit the byte string; virtual payload is elided.
	if len(b) != EthernetLen+IPv4Len+TCPLen {
		t.Fatalf("encoded %d bytes, want headers only", len(b))
	}
	got, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualPayload != 1400 {
		t.Fatalf("virtual payload = %d, want 1400", got.VirtualPayload)
	}
	if got.WireLen() != f.WireLen() {
		t.Fatalf("wire length %d != %d", got.WireLen(), f.WireLen())
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(key, seq uint64, client uint32, vlen uint16, useTCP bool) bool {
		fr := &Frame{
			Eth: Ethernet{Dst: MACFromID(9), Src: MACFromID(8)},
			IP:  IPv4{Src: HostIP(8), Dst: HostIP(9)},
		}
		if useTCP {
			fr.IP.Proto = IPProtoTCP
			fr.TCP = TCP{SrcPort: 1, DstPort: 2, Seq: uint32(seq)}
			// Clamp below the IPv4 total-length ceiling (headers included):
			// Seal deliberately panics past it.
			fr.VirtualPayload = int(vlen) % (0xffff - IPv4Len - TCPLen + 1)
		} else {
			fr.IP.Proto = IPProtoUDP
			fr.UDP = UDP{SrcPort: 3, DstPort: PortKV}
			fr.Payload = AppendKV(nil, KVMsg{Op: KVSet, Key: key, Seq: seq, Client: client})
			fr.VirtualPayload = int(vlen % 512)
		}
		fr.Seal()
		got, err := ParseFrame(AppendFrame(nil, fr))
		if err != nil {
			return false
		}
		return got.WireLen() == fr.WireLen() &&
			got.VirtualPayload == fr.VirtualPayload &&
			bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{
		Eth:     Ethernet{Dst: MACFromID(2)},
		IP:      IPv4{Proto: IPProtoUDP, Src: 1, Dst: 2},
		Payload: []byte{1, 2, 3},
	}
	g := f.Clone()
	g.Payload[0] = 99
	g.IP.TOS = 3
	if f.Payload[0] != 1 || f.IP.TOS != 0 {
		t.Fatal("Clone aliases original")
	}
}

func TestKVRoundTrip(t *testing.T) {
	f := func(op uint8, flags uint8, key, ver, seq uint64, client uint32, vlen uint16) bool {
		m := KVMsg{Op: KVOp(op%6 + 1), Flags: flags, Key: key, Ver: ver,
			Client: client, Seq: seq, ValueLen: vlen}
		got, err := ParseKV(AppendKV(nil, m))
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParseKV(make([]byte, KVMsgLen-1)); err != ErrTruncated {
		t.Error("short KV should be ErrTruncated")
	}
}

func TestPTPRoundTrip(t *testing.T) {
	f := func(typ uint8, seq uint16, origin, corr int64) bool {
		m := PTPMsg{Type: PTPType(typ%4 + 1), Seq: seq,
			Origin: sim.Time(origin), Correction: sim.Time(corr)}
		got, err := ParsePTP(AppendPTP(nil, m))
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNTPRoundTrip(t *testing.T) {
	f := func(mode uint8, t1, t2, t3 int64) bool {
		m := NTPMsg{Mode: mode, T1: sim.Time(t1), T2: sim.Time(t2), T3: sim.Time(t3)}
		got, err := ParseNTP(AppendNTP(nil, m))
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInternetChecksum(t *testing.T) {
	// RFC 1071 example: checksum of a buffer plus its checksum is zero.
	b := []byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	ck := internetChecksum(b)
	put16(b[10:], ck)
	if internetChecksum(b) != 0 {
		t.Fatal("checksum of checksummed header should be 0")
	}
	// Known value for this canonical header.
	if ck != 0xb861 {
		t.Fatalf("checksum = %#x, want 0xb861", ck)
	}
}
