package packet

import (
	"fmt"
	"net/netip"
)

// udpHeaderLen is the length of a UDP header.
const udpHeaderLen = 8

// UDP is a parsed UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// MarshalUDPInto serializes a UDP datagram (header + payload) with a correct
// checksum over the IPv4 pseudo-header for src/dst, into buf when it has
// sufficient capacity (allocating otherwise). The returned datagram aliases
// buf in the reuse case; the UDP probe builders recycle their datagram
// scratch through it across an entire trace.
func MarshalUDPInto(buf []byte, src, dst netip.Addr, h *UDP, payload []byte) ([]byte, error) {
	length := udpHeaderLen + len(payload)
	if length > 0xffff {
		return nil, fmt.Errorf("packet: UDP datagram too large (%d bytes)", length)
	}
	b := sliceInto(buf, length)
	put16(b[0:], h.SrcPort)
	put16(b[2:], h.DstPort)
	put16(b[4:], uint16(length))
	copy(b[8:], payload)
	ck := udpChecksum(src, dst, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all ones if computed zero
	}
	put16(b[6:], ck)
	return b, nil
}

// ParseUDPInto decodes the UDP header at the front of b into h and returns
// the payload (aliasing b); h is overwritten entirely. Quoted datagrams inside
// ICMP errors may be truncated to the first eight octets; the returned payload
// is then empty.
func ParseUDPInto(b []byte, h *UDP) ([]byte, error) {
	if len(b) < udpHeaderLen {
		return nil, errTruncated
	}
	*h = UDP{
		SrcPort:  get16(b[0:]),
		DstPort:  get16(b[2:]),
		Length:   get16(b[4:]),
		Checksum: get16(b[6:]),
	}
	end := int(h.Length)
	if end < udpHeaderLen || end > len(b) {
		end = len(b)
	}
	return b[udpHeaderLen:end], nil
}

// udpChecksum computes the UDP checksum of the serialized datagram dgram
// (checksum field treated as zero) over the pseudo-header for src/dst.
func udpChecksum(src, dst netip.Addr, dgram []byte) uint16 {
	s := pseudoHeaderSum(src, dst, ProtoUDP, len(dgram))
	s += sum(dgram[:6])
	s += sum(dgram[8:])
	return finish(s)
}

// VerifyUDPChecksum reports whether the serialized datagram's checksum is
// valid for the given pseudo-header addresses. A wire checksum of zero means
// "no checksum" and verifies trivially.
func VerifyUDPChecksum(src, dst netip.Addr, dgram []byte) bool {
	if len(dgram) < udpHeaderLen {
		return false
	}
	wire := get16(dgram[6:])
	if wire == 0 {
		return true
	}
	want := udpChecksum(src, dst, dgram)
	if want == 0 {
		want = 0xffff
	}
	return wire == want
}

// CraftUDPPayloadInto returns a payload of length n (n >= 2) such that the
// UDP datagram with header h sent from src to dst has exactly the checksum
// target. This is Paris traceroute's UDP technique: the checksum becomes the
// varying probe identifier while the ports — the flow identifier — stay
// constant. The payload is written into buf when it has sufficient capacity
// (allocating otherwise) and aliases buf in the reuse case.
//
// target must be nonzero: a zero UDP checksum means "not computed" and would
// be rewritten to 0xffff on the wire, breaking probe matching.
func CraftUDPPayloadInto(buf []byte, src, dst netip.Addr, h *UDP, target uint16, n int) ([]byte, error) {
	if target == 0 {
		return nil, fmt.Errorf("packet: cannot craft a zero UDP checksum (means no-checksum on the wire)")
	}
	if n < 2 {
		return nil, fmt.Errorf("packet: need at least 2 payload bytes to absorb the checksum, got %d", n)
	}
	length := udpHeaderLen + n
	// Sum of pseudo-header plus header (checksum field zero) plus the n-2
	// trailing zero payload bytes; the first payload word x must satisfy
	// finish(s + x) == target, i.e. x = ^target - fold(s) in one's complement.
	var hdr [udpHeaderLen]byte
	put16(hdr[0:], h.SrcPort)
	put16(hdr[2:], h.DstPort)
	put16(hdr[4:], uint16(length))
	s := pseudoHeaderSum(src, dst, ProtoUDP, length)
	s += sum(hdr[:6])
	folded := ^finish(s) // one's-complement fold of s
	x := onesSub(^target, folded)
	payload := sliceInto(buf, n)
	// The checksum math above assumes the n-2 trailing payload bytes are
	// zero; a recycled buf may carry stale bytes, so clear explicitly.
	clear(payload)
	payload[0] = byte(x >> 8)
	payload[1] = byte(x)
	return payload, nil
}
