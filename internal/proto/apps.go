package proto

import "repro/internal/sim"

// Well-known UDP/TCP ports used by the case-study applications.
const (
	PortKV         uint16 = 7000  // NetCache/Pegasus key-value protocol
	PortNTP        uint16 = 123   // NTP
	PortPTPEvent   uint16 = 319   // PTP event messages (Sync, DelayReq)
	PortPTPGeneral uint16 = 320   // PTP general messages (FollowUp, DelayResp)
	PortCRDB       uint16 = 26257 // commit-wait KV store
	PortBulk       uint16 = 5001  // bulk-transfer background traffic
)

// KVOp enumerates key-value protocol operations, including the in-network
// variants the NetCache and Pegasus dataplanes speak.
type KVOp uint8

const (
	KVGet KVOp = iota + 1
	KVSet
	KVGetReply
	KVSetReply
	// KVCacheUpdate installs/refreshes a key in a switch cache
	// (NetCache write-through after a SET).
	KVCacheUpdate
	// KVInvalidate removes a key from a switch cache.
	KVInvalidate
)

// KV message flag bits.
const (
	// KVFlagSwitchHit marks a reply served directly by a switch cache.
	KVFlagSwitchHit uint8 = 1 << 0
)

// KVMsg is the fixed-size key-value protocol message.
type KVMsg struct {
	Op       KVOp
	Flags    uint8
	Key      uint64
	Ver      uint64 // version number, used by in-network coherence
	Client   uint32 // requesting client id, echoed in replies
	Seq      uint64 // per-client request sequence number
	ValueLen uint16 // value size in bytes (carried as virtual payload)
}

// KVMsgLen is the encoded size.
const KVMsgLen = 32

// AppendKV appends the encoded message.
func AppendKV(dst []byte, m KVMsg) []byte {
	var b [KVMsgLen]byte
	b[0] = byte(m.Op)
	b[1] = m.Flags
	put64(b[2:], m.Key)
	put64(b[10:], m.Ver)
	put32(b[18:], m.Client)
	put64(b[22:], m.Seq)
	put16(b[30:], m.ValueLen)
	return append(dst, b[:]...)
}

// ParseKV decodes a message.
func ParseKV(b []byte) (KVMsg, error) {
	if len(b) < KVMsgLen {
		return KVMsg{}, ErrTruncated
	}
	return KVMsg{
		Op:       KVOp(b[0]),
		Flags:    b[1],
		Key:      be64(b[2:]),
		Ver:      be64(b[10:]),
		Client:   be32(b[18:]),
		Seq:      be64(b[22:]),
		ValueLen: be16(b[30:]),
	}, nil
}

// PTPType enumerates the PTP message types the clock-sync case study uses
// (end-to-end delay mechanism with two-step sync).
type PTPType uint8

const (
	PTPSync PTPType = iota + 1
	PTPFollowUp
	PTPDelayReq
	PTPDelayResp
)

// PTPMsg is a simplified PTP message. Origin carries the relevant precise
// timestamp (meaning depends on Type); Correction accumulates transparent-
// clock residence time added by switches along the path.
type PTPMsg struct {
	Type       PTPType
	Seq        uint16
	Origin     sim.Time
	Correction sim.Time
}

// PTPMsgLen is the encoded size.
const PTPMsgLen = 19

// AppendPTP appends the encoded message.
func AppendPTP(dst []byte, m PTPMsg) []byte {
	var b [PTPMsgLen]byte
	b[0] = byte(m.Type)
	put16(b[1:], m.Seq)
	put64(b[3:], uint64(m.Origin))
	put64(b[11:], uint64(m.Correction))
	return append(dst, b[:]...)
}

// ParsePTP decodes a message.
func ParsePTP(b []byte) (PTPMsg, error) {
	if len(b) < PTPMsgLen {
		return PTPMsg{}, ErrTruncated
	}
	return PTPMsg{
		Type:       PTPType(b[0]),
		Seq:        be16(b[1:]),
		Origin:     sim.Time(be64(b[3:])),
		Correction: sim.Time(be64(b[11:])),
	}, nil
}

// NTP modes.
const (
	NTPModeClient uint8 = 3
	NTPModeServer uint8 = 4
)

// NTPMsg is a simplified NTP packet carrying the three protocol timestamps;
// the fourth (receive time at the client) is taken on arrival.
type NTPMsg struct {
	Mode       uint8
	T1, T2, T3 sim.Time
}

// NTPMsgLen is the encoded size.
const NTPMsgLen = 25

// AppendNTP appends the encoded message.
func AppendNTP(dst []byte, m NTPMsg) []byte {
	var b [NTPMsgLen]byte
	b[0] = m.Mode
	put64(b[1:], uint64(m.T1))
	put64(b[9:], uint64(m.T2))
	put64(b[17:], uint64(m.T3))
	return append(dst, b[:]...)
}

// ParseNTP decodes a message.
func ParseNTP(b []byte) (NTPMsg, error) {
	if len(b) < NTPMsgLen {
		return NTPMsg{}, ErrTruncated
	}
	return NTPMsg{
		Mode: b[0],
		T1:   sim.Time(be64(b[1:])),
		T2:   sim.Time(be64(b[9:])),
		T3:   sim.Time(be64(b[17:])),
	}, nil
}
