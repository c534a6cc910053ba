package proto

import "fmt"

// Prefix is a CIDR-style aggregate of IPv4 addresses: the Bits highest-order
// bits of Addr identify the block, the rest are zero. Prefixes are the
// currency of aggregate routing — a datacenter switch holds one entry per
// pod or per leaf block instead of one per host, which is what keeps routing
// state O(pods) on 10⁴–10⁵-host fabrics.
type Prefix struct {
	Addr IP
	Bits uint8
}

// MakePrefix builds a normalized prefix (host bits of addr masked off).
// It panics when bits is outside [0, 32].
func MakePrefix(addr IP, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("proto: prefix length %d out of range", bits))
	}
	return Prefix{Addr: addr.Masked(uint8(bits)), Bits: uint8(bits)}
}

// String renders "a.b.c.d/len".
func (p Prefix) String() string { return fmt.Sprintf("%v/%d", p.Addr, p.Bits) }

// Masked returns ip with all but the bits highest-order bits cleared.
// bits must be in [0, 32]; a Go shift by >= 32 yields 0, so bits == 0
// correctly maps every address to 0.
func (ip IP) Masked(bits uint8) IP {
	return ip & IP(uint32(0xffffffff)<<(32-bits))
}
