package packet

import (
	"fmt"
)

// ICMPv4 message types used by traceroute.
const (
	ICMPTypeEchoReply       = 0
	ICMPTypeDestUnreachable = 3
	ICMPTypeEchoRequest     = 8
	ICMPTypeTimeExceeded    = 11
)

// Destination Unreachable codes (RFC 792).
const (
	CodeNetUnreachable  = 0
	CodeHostUnreachable = 1
	CodePortUnreachable = 3
)

// CodeTTLExceeded is the Time Exceeded code for a TTL that ran out in
// transit.
const CodeTTLExceeded = 0

// ICMPHeaderLen is the length of the fixed four-octet ICMP header plus the
// four octets of type-specific data (rest of header).
const ICMPHeaderLen = 8

// ICMP is a parsed ICMPv4 message. For Echo Request/Reply, ID and Seq hold
// the identifier and sequence number and Payload the echo data. For error
// messages (Time Exceeded, Destination Unreachable), Payload holds the
// quoted packet: the offending IP header plus at least its first eight
// payload octets (RFC 792).
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16 // Echo identifier (error messages: unused field high half)
	Seq      uint16 // Echo sequence number (error messages: unused field low half)
	Payload  []byte
}

// IsError reports whether the message quotes an offending packet.
func (m *ICMP) IsError() bool {
	return m.Type == ICMPTypeTimeExceeded || m.Type == ICMPTypeDestUnreachable
}

// Marshal serializes the ICMP message with a correct checksum.
func (m *ICMP) Marshal() ([]byte, error) {
	b := make([]byte, ICMPHeaderLen+len(m.Payload))
	b[0] = m.Type
	b[1] = m.Code
	put16(b[4:], m.ID)
	put16(b[6:], m.Seq)
	copy(b[8:], m.Payload)
	put16(b[2:], Checksum(b))
	return b, nil
}

// IPv4ICMPLen returns the serialized length of MarshalIPv4ICMPInto's output
// for the given header and message, so callers carving the destination buffer
// out of an arena can size it exactly.
func IPv4ICMPLen(ip *IPv4, m *ICMP) int {
	return ip.HeaderLen() + ICMPHeaderLen + len(m.Payload)
}

// MarshalIPv4ICMPInto serializes the IPv4 header ip carrying the ICMP message
// m as its entire payload, in a single buffer (where m.Marshal followed by
// ip.MarshalInto would make two and copy the body twice): buf when it has
// sufficient capacity, a fresh slice otherwise. ip.Protocol should be
// ProtoICMP. m.Payload may alias a live packet buffer: it is copied into the
// output before this function returns. This is the response path of the
// network simulator, hit once per ICMP error or echo reply it originates; its
// batch arena supplies buf to take response marshaling off the heap.
func MarshalIPv4ICMPInto(buf []byte, ip *IPv4, m *ICMP) ([]byte, error) {
	if err := ip.headerCheck(); err != nil {
		return nil, err
	}
	hlen := ip.HeaderLen()
	total := hlen + ICMPHeaderLen + len(m.Payload)
	if total > 0xffff {
		return nil, fmt.Errorf("packet: IPv4 packet too large (%d bytes)", total)
	}
	b := sliceInto(buf, total)
	body := b[hlen:]
	body[0] = m.Type
	body[1] = m.Code
	body[2], body[3] = 0, 0 // clear any stale checksum before summing
	put16(body[4:], m.ID)
	put16(body[6:], m.Seq)
	copy(body[8:], m.Payload)
	put16(body[2:], Checksum(body))
	ip.putHeader(b, total)
	return b, nil
}

// ParseICMPInto decodes an ICMPv4 message into m. m is overwritten entirely;
// its Payload aliases b.
func ParseICMPInto(b []byte, m *ICMP) error {
	if len(b) < ICMPHeaderLen {
		return errTruncated
	}
	*m = ICMP{
		Type:     b[0],
		Code:     b[1],
		Checksum: get16(b[2:]),
		ID:       get16(b[4:]),
		Seq:      get16(b[6:]),
		Payload:  b[8:],
	}
	return nil
}

// VerifyICMPChecksum reports whether the serialized ICMP message msg has a
// valid checksum.
func VerifyICMPChecksum(msg []byte) bool {
	if len(msg) < ICMPHeaderLen {
		return false
	}
	return Checksum(msg) == 0
}

// echoChecksum returns the checksum an Echo message with the given fields
// will carry on the wire. Classic traceroute varies Seq (and therefore this
// checksum — the flow identifier); Paris traceroute picks ID so that the
// checksum stays constant (see CompensatingEchoID).
func echoChecksum(typ, code uint8, id, seq uint16, payload []byte) uint16 {
	b := make([]byte, ICMPHeaderLen+len(payload))
	b[0] = typ
	b[1] = code
	put16(b[4:], id)
	put16(b[6:], seq)
	copy(b[8:], payload)
	return Checksum(b)
}

// CompensatingEchoID returns the Echo Identifier that keeps the ICMP
// checksum equal to target when the sequence number is seq, for an Echo
// Request with the given payload. This is Paris traceroute's ICMP
// technique: Seq still varies per probe (for matching) but ID absorbs the
// variation so the checksum — which per-flow load balancers hash, since it
// sits in the first four transport octets — never changes.
func CompensatingEchoID(seq, target uint16, payload []byte) (uint16, error) {
	// checksum = ^fold(base + id + seq) where base covers type/code/payload.
	b := make([]byte, ICMPHeaderLen+len(payload))
	b[0] = ICMPTypeEchoRequest
	copy(b[8:], payload)
	base := ^finish(sum(b)) // folded sum with id=seq=0
	id := onesSub(onesSub(^target, base), seq)
	got := echoChecksum(ICMPTypeEchoRequest, 0, id, seq, payload)
	if got != target {
		// One's-complement zero ambiguity (0x0000 vs 0xffff) can shift the
		// result by one representation; nudge via the alternate zero.
		if alt := onesAdd(id, 0xffff); echoChecksum(ICMPTypeEchoRequest, 0, alt, seq, payload) == target {
			return alt, nil
		}
		return 0, fmt.Errorf("packet: cannot reach ICMP checksum %#04x with seq %#04x", target, seq)
	}
	return id, nil
}

// TimeExceeded builds the ICMP Time Exceeded message a router generates when
// it discards the serialized IP packet quoted. Per RFC 792 the quote is the
// offending IP header plus its first eight payload octets.
func TimeExceeded(quoted []byte) (*ICMP, error) {
	q, err := QuotePacket(quoted)
	if err != nil {
		return nil, err
	}
	return &ICMP{Type: ICMPTypeTimeExceeded, Code: CodeTTLExceeded, Payload: q}, nil
}

// DestUnreachable builds an ICMP Destination Unreachable with the given code
// quoting the offending packet.
func DestUnreachable(code uint8, quoted []byte) (*ICMP, error) {
	q, err := QuotePacket(quoted)
	if err != nil {
		return nil, err
	}
	return &ICMP{Type: ICMPTypeDestUnreachable, Code: code, Payload: q}, nil
}

// QuotePacket returns the RFC 792 quotation of a serialized IP packet: its
// IP header (with options) plus the first eight octets of its payload. The
// returned slice is a copy.
func QuotePacket(pkt []byte) ([]byte, error) {
	h, payload, err := ParseIPv4(pkt)
	if err != nil {
		return nil, fmt.Errorf("packet: cannot quote: %w", err)
	}
	n := 8
	if len(payload) < n {
		n = len(payload)
	}
	q := make([]byte, h.HeaderLen()+n)
	copy(q, pkt[:h.HeaderLen()])
	copy(q[h.HeaderLen():], payload[:n])
	return q, nil
}

// ParseQuoted parses the packet quoted inside an ICMP error message,
// returning the inner IP header and the (truncated) transport octets.
func ParseQuoted(m *ICMP) (*IPv4, []byte, error) {
	if !m.IsError() {
		return nil, nil, fmt.Errorf("packet: ICMP type %d carries no quoted packet", m.Type)
	}
	return ParseIPv4(m.Payload)
}
