package proto

// Frame is a fully parsed Ethernet/IPv4 packet as it travels between
// simulator components. It is the payload type on network channels and
// implements core.Message via Size.
//
// Payload holds the semantic application bytes (a KV, PTP, or NTP message).
// VirtualPayload counts additional synthetic payload bytes that occupy link
// time and queue space but carry no information (bulk-transfer data); they
// are covered by the IPv4 total length but never materialized.
type Frame struct {
	Eth Ethernet
	IP  IPv4
	UDP UDP // valid when IP.Proto == IPProtoUDP
	TCP TCP // valid when IP.Proto == IPProtoTCP

	Payload        []byte
	VirtualPayload int

	// Pooling state (see FramePool). buf is the adopted backing buffer the
	// Payload aliases into; pool is the owning free list; live guards
	// against double release. All three are zero for frames built with
	// struct literals.
	buf  []byte
	pool *FramePool
	live bool
}

// l4Len returns the encoded transport header length.
func (f *Frame) l4Len() int {
	switch f.IP.Proto {
	case IPProtoUDP:
		return UDPLen
	case IPProtoTCP:
		return TCPLen
	default:
		return 0
	}
}

// PayloadLen is the full (real + virtual) payload size in bytes.
func (f *Frame) PayloadLen() int { return len(f.Payload) + f.VirtualPayload }

// WireLen is the frame's size on the wire in bytes, virtual payload
// included.
func (f *Frame) WireLen() int {
	return EthernetLen + IPv4Len + f.l4Len() + f.PayloadLen()
}

// Size implements core.Message.
func (f *Frame) Size() int { return f.WireLen() }

// Seal fixes up the length fields (IPv4 total length, UDP length) from the
// payload sizes. Call it after filling in headers and payload. Payloads
// that would overflow the IPv4 total length panic: silently wrapping the
// length would corrupt timing at every serialization point downstream.
func (f *Frame) Seal() *Frame {
	total := IPv4Len + f.l4Len() + f.PayloadLen()
	if total > 0xffff {
		panic("proto: frame exceeds the IPv4 maximum total length")
	}
	f.IP.TotalLen = uint16(total)
	if f.IP.Proto == IPProtoUDP {
		f.UDP.Length = uint16(UDPLen + f.PayloadLen())
	}
	if f.IP.TTL == 0 {
		f.IP.TTL = 64
	}
	f.Eth.EtherType = EtherTypeIPv4
	return f
}

// AppendFrame encodes the frame. Virtual payload bytes are not written; the
// IPv4 total length still covers them, which is how ParseFrame recovers the
// count (like a capture with a snap length).
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = AppendEthernet(dst, f.Eth)
	dst = AppendIPv4(dst, f.IP)
	switch f.IP.Proto {
	case IPProtoUDP:
		dst = AppendUDP(dst, f.UDP)
	case IPProtoTCP:
		dst = AppendTCP(dst, f.TCP)
	}
	return append(dst, f.Payload...)
}

// ParseFrame decodes a frame produced by AppendFrame. The returned frame's
// Payload aliases b — the caller hands the buffer over rather than paying
// the copy the old decoder made; callers that mutate b afterwards must copy
// first.
func ParseFrame(b []byte) (*Frame, error) {
	f := &Frame{}
	if err := ParseFrameInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseFrameInto decodes into f, aliasing f.Payload into b with no copy.
// Ownership of b transfers to the frame: a pooled f adopts b and returns it
// to its pool on Release (even when parsing fails, so error paths need only
// release the frame). f's previously parsed fields are overwritten; Payload
// and VirtualPayload are reset explicitly since a pooled frame may carry
// stale values on the error paths below.
func ParseFrameInto(f *Frame, b []byte) error {
	f.buf = b
	f.Payload = nil
	f.VirtualPayload = 0
	var err error
	var rest []byte
	if f.Eth, rest, err = ParseEthernet(b); err != nil {
		return err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		f.IP = IPv4{}
		return nil // non-IP frame: opaque
	}
	if f.IP, rest, err = ParseIPv4(rest); err != nil {
		return err
	}
	switch f.IP.Proto {
	case IPProtoUDP:
		if f.UDP, rest, err = ParseUDP(rest); err != nil {
			return err
		}
	case IPProtoTCP:
		if f.TCP, rest, err = ParseTCP(rest); err != nil {
			return err
		}
	}
	if len(rest) > 0 {
		f.Payload = rest
	}
	total := int(f.IP.TotalLen) - IPv4Len - f.l4Len()
	if total < len(f.Payload) {
		return ErrTruncated
	}
	f.VirtualPayload = total - len(f.Payload)
	return nil
}

// RawWireLen returns the true wire length of an encoded frame including
// elided virtual payload bytes, by consulting the embedded IPv4 total
// length. Non-IPv4 or truncated buffers report their literal length.
func RawWireLen(b []byte) int {
	if len(b) >= EthernetLen+IPv4Len && be16(b[12:]) == EtherTypeIPv4 {
		if total := EthernetLen + int(be16(b[EthernetLen+2:])); total > len(b) {
			return total
		}
	}
	return len(b)
}

// CopyPayload points the frame's Payload at a private copy of p so the
// frame does not retain the caller's slice — p may alias another frame's
// pooled buffer that gets recycled before this frame is delivered. Pooled
// frames copy into a pooled buffer (returned on Release); pool-less frames
// fall back to a plain allocation.
func (f *Frame) CopyPayload(p []byte) {
	if len(p) == 0 {
		f.Payload = nil
		return
	}
	if f.pool != nil {
		f.buf = append(f.pool.GetBuf(), p...)
		f.Payload = f.buf
	} else {
		f.Payload = append([]byte(nil), p...)
	}
}

// Clone returns a deep copy of the frame. Switches that modify headers
// (ECN marking, TTL, PTP correction) operate on their own copy so that
// fan-out does not alias. The clone is pool-less regardless of the
// original: its Release is a no-op and the GC reclaims it.
func (f *Frame) Clone() *Frame {
	g := *f
	g.buf, g.pool, g.live = nil, nil, false
	if f.Payload != nil {
		g.Payload = append([]byte(nil), f.Payload...)
	}
	return &g
}
