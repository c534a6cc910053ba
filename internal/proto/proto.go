// Package proto defines the wire formats that cross SplitSim channels:
// Ethernet, IPv4, UDP and TCP headers, and the application protocols used by
// the case studies (key-value/NetCache/Pegasus, NTP, PTP).
//
// Encoders follow the append style (Append* returns the extended slice) and
// decoders the parse style (Parse* returns the value and the remaining
// bytes). Headers use real network byte order and layouts, so frames that
// cross a partition boundary are honest byte strings, exactly like the
// Ethernet messages on SimBricks channels. Synthetic bulk payloads are
// elided on the wire: the IPv4 total length covers them, but the bytes are
// not materialized — the same way a packet capture with a snap length works.
package proto

import (
	"errors"
	"fmt"
)

// ErrTruncated reports a buffer too short for the header being parsed.
var ErrTruncated = errors.New("proto: truncated packet")

// ErrChecksum reports an IPv4 header checksum mismatch.
var ErrChecksum = errors.New("proto: bad checksum")

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// MACFromID derives a stable locally administered MAC for host id.
func MACFromID(id uint32) MAC {
	return MAC{0x02, 0x00, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP is an IPv4 address in host integer form.
type IP uint32

// HostIP derives a stable 10.0.0.0/8 address for host id.
func HostIP(id uint32) IP {
	return IP(0x0a000000 | (id & 0x00ffffff))
}

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherType values.
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IP protocol numbers.
const (
	IPProtoTCP uint8 = 6
	IPProtoUDP uint8 = 17
)

// ECN codepoints (the low two bits of the IPv4 TOS byte).
const (
	ECNNotECT uint8 = 0
	ECNECT1   uint8 = 1
	ECNECT0   uint8 = 2
	ECNCE     uint8 = 3
)

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func be64(b []byte) uint64 { return uint64(be32(b))<<32 | uint64(be32(b[4:])) }

func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func put64(b []byte, v uint64) { put32(b, uint32(v>>32)); put32(b[4:], uint32(v)) }

// internetChecksum computes the 16-bit one's-complement sum used by IPv4.
func internetChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(be16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}
