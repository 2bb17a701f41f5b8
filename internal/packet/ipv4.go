package packet

import (
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers for the transports this library understands.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// Common errors returned by the parsers in this package.
var (
	errTruncated  = errors.New("packet: truncated")
	errBadVersion = errors.New("packet: not an IPv4 packet")
	errBadLength  = errors.New("packet: inconsistent length fields")
)

// IPv4 is a parsed IPv4 header. Options are preserved verbatim.
type IPv4 struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	Flags      uint8  // 3 bits: reserved, DF, MF
	FragOff    uint16 // 13 bits, in 8-octet units
	TTL        uint8
	Protocol   uint8
	Checksum   uint16 // as seen on the wire; recomputed by MarshalInto
	Src, Dst   netip.Addr
	Options    []byte
	PayloadLen int // TotalLen minus header length, for convenience
}

// HeaderLen returns the header length in bytes including options.
func (h *IPv4) HeaderLen() int { return IPv4HeaderLen + len(h.Options) }

// headerCheck validates the marshal preconditions shared by MarshalInto and
// MarshalIPv4ICMPInto.
func (h *IPv4) headerCheck() error {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return fmt.Errorf("packet: IPv4 marshal requires v4 addresses, got src=%v dst=%v", h.Src, h.Dst)
	}
	if len(h.Options)%4 != 0 {
		return fmt.Errorf("packet: IPv4 options length %d not a multiple of 4", len(h.Options))
	}
	return nil
}

// putHeader writes the serialized header (with checksum) into the first
// HeaderLen bytes of b, stamping total as the Total Length field.
func (h *IPv4) putHeader(b []byte, total int) {
	hlen := h.HeaderLen()
	b[0] = 4<<4 | uint8(hlen/4)
	b[1] = h.TOS
	put16(b[2:], uint16(total))
	put16(b[4:], h.ID)
	put16(b[6:], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	// Checksum at b[10:12] computed below; clear first so a recycled
	// buffer's stale checksum does not poison the sum.
	b[10], b[11] = 0, 0
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	copy(b[20:hlen], h.Options)
	put16(b[10:], Checksum(b[:hlen]))
}

// MarshalInto serializes the header followed by payload, computing TotalLen
// and the header checksum, into buf when it has sufficient capacity
// (allocating a fresh slice otherwise). Src and Dst must be valid IPv4
// addresses. The returned packet aliases buf in the reuse case; probe
// builders and the simulator's batch arena use this to keep the marshal path
// allocation-free.
func (h *IPv4) MarshalInto(buf, payload []byte) ([]byte, error) {
	if err := h.headerCheck(); err != nil {
		return nil, err
	}
	hlen := h.HeaderLen()
	total := hlen + len(payload)
	if total > 0xffff {
		return nil, fmt.Errorf("packet: IPv4 packet too large (%d bytes)", total)
	}
	b := sliceInto(buf, total)
	h.putHeader(b, total)
	copy(b[hlen:], payload)
	return b, nil
}

// ParseIPv4 decodes the IPv4 header at the front of b. It returns the parsed
// header and the transport payload (aliasing b, not copied).
func ParseIPv4(b []byte) (*IPv4, []byte, error) {
	h := new(IPv4)
	payload, err := ParseIPv4Into(b, h)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// ParseIPv4Into decodes the IPv4 header at the front of b into h, avoiding
// the heap allocation of ParseIPv4. It returns the transport payload
// (aliasing b, not copied). h is overwritten entirely. This is the parser
// the simulator's forwarding loop uses once per packet version instead of
// once per hop.
func ParseIPv4Into(b []byte, h *IPv4) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, errTruncated
	}
	if b[0]>>4 != 4 {
		return nil, errBadVersion
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4HeaderLen || len(b) < hlen {
		return nil, errTruncated
	}
	// Field by field: a composite literal copied into *h costs a block
	// copy per parse, and this runs once per packet on every path.
	h.TOS = b[1]
	h.TotalLen = get16(b[2:])
	h.ID = get16(b[4:])
	h.Flags = b[6] >> 5
	h.FragOff = get16(b[6:]) & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = get16(b[10:])
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	h.Options = nil
	if hlen > IPv4HeaderLen {
		h.Options = b[IPv4HeaderLen:hlen]
	}
	end := int(h.TotalLen)
	if end < hlen {
		h.PayloadLen = 0
		return nil, errBadLength
	}
	if end > len(b) {
		// Quoted packets inside ICMP errors are legitimately truncated to
		// the header plus eight octets; accept what we have.
		end = len(b)
	}
	h.PayloadLen = end - hlen
	return b[hlen:end], nil
}

// PatchTTL rewrites the TTL of the serialized IPv4 packet pkt in place and
// incrementally updates the header checksum (RFC 1624). It is the hot path
// of the simulator's forwarding loop.
func PatchTTL(pkt []byte, ttl uint8) error {
	if len(pkt) < IPv4HeaderLen {
		return errTruncated
	}
	old := uint16(pkt[8]) << 8
	pkt[8] = ttl
	newv := uint16(ttl) << 8
	ck := get16(pkt[10:])
	// RFC 1624: HC' = ~(~HC + ~m + m')
	ck = ^onesAdd(onesAdd(^ck, ^old), newv)
	put16(pkt[10:], ck)
	return nil
}

// PatchSrc rewrites the source address of the serialized IPv4 packet in
// place, updating the header checksum incrementally. Used by the simulated
// NAT boxes that rewrite ICMP sources (Fig. 5 of the paper).
func PatchSrc(pkt []byte, src netip.Addr) error {
	if len(pkt) < IPv4HeaderLen {
		return errTruncated
	}
	if !src.Is4() {
		return fmt.Errorf("packet: PatchSrc requires an IPv4 address, got %v", src)
	}
	a := src.As4()
	ck := get16(pkt[10:])
	for i := 0; i < 4; i += 2 {
		old := get16(pkt[12+i:])
		newv := uint16(a[i])<<8 | uint16(a[i+1])
		ck = ^onesAdd(onesAdd(^ck, ^old), newv)
		pkt[12+i] = a[i]
		pkt[12+i+1] = a[i+1]
	}
	put16(pkt[10:], ck)
	return nil
}

// pseudoHeaderSum returns the unfolded checksum contribution of the
// UDP/TCP pseudo-header for the given addresses, protocol and length.
func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	s4 := src.As4()
	d4 := dst.As4()
	var s uint32
	s += uint32(s4[0])<<8 | uint32(s4[1])
	s += uint32(s4[2])<<8 | uint32(s4[3])
	s += uint32(d4[0])<<8 | uint32(d4[1])
	s += uint32(d4[2])<<8 | uint32(d4[3])
	s += uint32(proto)
	s += uint32(length)
	return s
}

func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func get16(b []byte) uint16    { return uint16(b[0])<<8 | uint16(b[1]) }
