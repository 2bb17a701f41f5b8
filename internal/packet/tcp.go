package packet

import (
	"fmt"
	"net/netip"
)

// tcpHeaderLen is the length of a TCP header without options.
const tcpHeaderLen = 20

// TCP control bits.
const (
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPAck = 1 << 4
)

// TCP is a parsed TCP header. Options are preserved verbatim.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
}

// HeaderLen returns the header length in bytes including options.
func (h *TCP) HeaderLen() int { return tcpHeaderLen + len(h.Options) }

// MarshalTCP serializes a TCP segment (header + payload) with a correct
// checksum over the IPv4 pseudo-header for src/dst.
func MarshalTCP(src, dst netip.Addr, h *TCP, payload []byte) ([]byte, error) {
	if len(h.Options)%4 != 0 {
		return nil, fmt.Errorf("packet: TCP options length %d not a multiple of 4", len(h.Options))
	}
	hlen := h.HeaderLen()
	if hlen > 60 {
		return nil, fmt.Errorf("packet: TCP header too long (%d bytes)", hlen)
	}
	b := make([]byte, hlen+len(payload))
	put16(b[0:], h.SrcPort)
	put16(b[2:], h.DstPort)
	put32(b[4:], h.Seq)
	put32(b[8:], h.Ack)
	b[12] = uint8(hlen/4) << 4
	b[13] = h.Flags
	put16(b[14:], h.Window)
	put16(b[18:], h.Urgent)
	copy(b[20:hlen], h.Options)
	copy(b[hlen:], payload)
	s := pseudoHeaderSum(src, dst, ProtoTCP, len(b))
	s += sum(b[:16])
	s += sum(b[18:])
	put16(b[16:], finish(s))
	return b, nil
}

// ParseTCPInto decodes the TCP header at the front of b into h; h is
// overwritten entirely, and payload and Options alias b. Quoted segments
// inside ICMP errors are truncated to eight octets, which covers only ports
// and the sequence number; ParseTCPInto accepts that and reports how much it
// parsed via the truncated return.
func ParseTCPInto(b []byte, h *TCP) (payload []byte, truncated bool, err error) {
	if len(b) < 8 {
		return nil, false, errTruncated
	}
	*h = TCP{
		SrcPort: get16(b[0:]),
		DstPort: get16(b[2:]),
		Seq:     get32(b[4:]),
	}
	if len(b) < tcpHeaderLen {
		return nil, true, nil
	}
	h.Ack = get32(b[8:])
	hlen := int(b[12]>>4) * 4
	h.Flags = b[13]
	h.Window = get16(b[14:])
	h.Checksum = get16(b[16:])
	h.Urgent = get16(b[18:])
	if hlen < tcpHeaderLen || hlen > len(b) {
		return nil, true, nil
	}
	if hlen > tcpHeaderLen {
		h.Options = b[tcpHeaderLen:hlen]
	}
	return b[hlen:], false, nil
}

// verifyTCPChecksum reports whether the serialized segment's checksum is
// valid for the given pseudo-header addresses.
func verifyTCPChecksum(src, dst netip.Addr, seg []byte) bool {
	if len(seg) < tcpHeaderLen {
		return false
	}
	s := pseudoHeaderSum(src, dst, ProtoTCP, len(seg))
	s += sum(seg)
	return finish(s) == 0
}

func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func get32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
