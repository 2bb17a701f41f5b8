// Package flowkey computes the quoted-flow-identifier keys that route a
// response back to the probe it answers. It is the one definition of the
// attribution rule, and it has three users: the live mux registers in-flight
// probes under these keys, the replay transport re-binds a captured
// campaign's responses with the same logic so offline replays attribute
// identically to the original run, and the tracer decides Hop.Mismatched
// with it for every response any transport hands back.
//
// The rule has two forms that are one rule. The keys (ProbeKeys, RespKey)
// serve the transports, which must find one probe among many in a table. The
// tracer already holds the one probe a response is supposed to answer, so it
// asks Quotes, which compares the same fields in place without building a
// key, and key equality for the at most one terminal answer of a trace.
// FuzzAnswers (package tracer) is the proof that the two never disagree.
//
// The key is the Paris invariant the paper builds on (Section 2.1): an ICMP
// error quotes the offending probe's IP header plus at least its first
// eight transport octets, and those first transport octets are exactly
// where every discipline keeps its flow identifier and its per-probe
// identifier (UDP ports and checksum; ICMP type/code/checksum/id/seq; TCP
// ports and sequence number). A probe therefore registers under the flow
// identifier of its own bytes — inner source, destination, protocol, IP ID,
// and the first eight transport octets — and an ICMP error is matched by
// extracting the same tuple from its quoted packet. Fields routers mutate
// in flight (the quoted TTL, which the paper's Fig. 4 shows arriving as 0
// or 1, and the IP checksum that follows it) are deliberately excluded, as
// is the outer source address, which NAT boxes rewrite (Fig. 5).
//
// Terminal responses carry no quote, so they match on what the destination
// echoes back instead: Echo Replies return the request's identifier and
// sequence number, and TCP RST/SYN-ACK segments return the probe's ports
// (swapped) and its sequence number acknowledged. When several in-flight
// probes share a terminal key (tcptraceroute sends a constant sequence
// number), responses resolve to the oldest unanswered probe — the FIFO
// rule — which is the only ambiguity the quoted-header invariant cannot
// remove (pinned by the replay suite's reordered-TCP regression test).
package flowkey

import (
	"repro/internal/packet"
)

// Key identifies the probe a response answers. Kind keeps the three
// namespaces (quoted errors, echo replies, TCP segments) disjoint. The
// struct is comparable and used directly as a map key.
type Key struct {
	Kind  uint8
	Src   [4]byte // probe source (inner header for quoted errors)
	Dst   [4]byte // probe destination (zero where rewriting makes it unsafe)
	Proto uint8
	IPID  uint16  // probe IP ID as quoted; 0 in terminal namespaces
	T     [8]byte // transport octets: quoted first 8 / echo id+seq / ports+ack
}

// The three key namespaces.
const (
	KindQuoted uint8 = iota + 1
	KindEcho
	KindTCP
)

// first8 copies up to eight transport octets, zero-padding the rest (RFC
// 792 guarantees eight for quoted probes; defensive for shorter captures).
func first8(b []byte) (t [8]byte) {
	if len(b) >= 8 {
		return [8]byte(b)
	}
	copy(t[:], b)
	return t
}

// set makes k the quoted key of the probe with header h and transport
// octets transport: what the probe registers under, and what an ICMP error
// quoting it yields. Field by field, so the stores go straight to k.
func (k *Key) set(h *packet.IPv4, transport []byte) {
	k.Kind = KindQuoted
	k.Src = h.Src.As4()
	k.Dst = h.Dst.As4()
	k.Proto = h.Protocol
	k.IPID = h.ID
	k.T = first8(transport)
}

// Quotes reports whether the packet an ICMP error quotes — header inner and
// transport octets quoted, as ParseIPv4Into returned them — is probe: whether
// the error's RespKey equals probe's quoted key. It is Key.set's fields
// compared in place, because building both keys by value for every response
// costs the tracer the copy-out stall probeKeys documents (measured: +13 %
// per traced pair).
func Quotes(probe []byte, inner *packet.IPv4, quoted []byte) bool {
	var h packet.IPv4
	transport, err := packet.ParseIPv4Into(probe, &h)
	return err == nil &&
		inner.Src == h.Src && inner.Dst == h.Dst &&
		inner.Protocol == h.Protocol && inner.ID == h.ID &&
		first8(quoted) == first8(transport)
}

// ProbeKeys derives the keys a serialized probe registers under: always the
// quoted-error key, plus a terminal key for disciplines whose destination
// answers in-protocol. Returns ok=false for packets that are not parseable
// IPv4 probes.
func ProbeKeys(probe []byte) (quoted Key, terminal Key, hasTerminal, ok bool) {
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(probe, &h)
	if err != nil {
		return Key{}, Key{}, false, false
	}
	hasTerminal, _ = probeKeys(&h, payload, &quoted, &terminal)
	return quoted, terminal, hasTerminal, true
}

// ProbeKeysOf is ProbeKeys for a packet whose IPv4 header the caller has
// already parsed (h and payload as ParseIPv4Into returned them), so a
// loader that must look at every packet of a capture parses each once. It
// also reports whether the packet is probe-shaped — a UDP datagram, an ICMP
// Echo Request, or a TCP segment with SYN set and ACK and RST clear, the
// only forms the tracer's disciplines send. Every response shape RespKey
// accepts from the network (ICMP errors, Echo Replies, RST and SYN-ACK
// segments) fails that test, which is what lets a capture holding both
// directions be split structurally.
func ProbeKeysOf(h *packet.IPv4, payload []byte) (quoted Key, terminal Key, hasTerminal, shaped bool) {
	hasTerminal, shaped = probeKeys(h, payload, &quoted, &terminal)
	return quoted, terminal, hasTerminal, shaped
}

// probeKeys writes the keys through pointers: the byte-wise key stores land
// in the caller's variables directly instead of being copied out of a
// result (a copy the processor stalls on, measurably, at this call rate).
// *terminal is written only when hasTerminal.
func probeKeys(h *packet.IPv4, payload []byte, quoted, terminal *Key) (hasTerminal, shaped bool) {
	quoted.set(h, payload)
	switch h.Protocol {
	case packet.ProtoUDP:
		return false, true
	case packet.ProtoICMP:
		var m packet.ICMP
		if err := packet.ParseICMPInto(payload, &m); err == nil && m.Type == packet.ICMPTypeEchoRequest {
			*terminal = Key{Kind: KindEcho, Src: quoted.Src, Proto: packet.ProtoICMP}
			put16(terminal.T[0:], m.ID)
			put16(terminal.T[2:], m.Seq)
			return true, true
		}
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err == nil {
			*terminal = Key{Kind: KindTCP, Src: quoted.Src, Proto: packet.ProtoTCP}
			put16(terminal.T[0:], th.SrcPort)
			put16(terminal.T[2:], th.DstPort)
			put32(terminal.T[4:], th.Seq+1) // RST and SYN-ACK acknowledge seq+1
			return true, th.Flags&packet.TCPSyn != 0 && th.Flags&(packet.TCPAck|packet.TCPRst) == 0
		}
	}
	return false, false
}

// RespKey classifies an inbound packet and computes the single key it
// matches under. ok=false means the packet cannot answer any probe
// (unparseable, an unrelated ICMP type, our own outbound probe looped back
// by the capture path) and must be dropped.
func RespKey(resp []byte) (key Key, ok bool) {
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(resp, &h)
	if err != nil {
		return Key{}, false
	}
	ok = respKey(&h, payload, &key)
	return key, ok
}

// RespKeyOf is RespKey for a packet whose IPv4 header the caller has
// already parsed.
func RespKeyOf(h *packet.IPv4, payload []byte) (key Key, ok bool) {
	ok = respKey(h, payload, &key)
	return key, ok
}

// respKey writes *key only when it reports true (see probeKeys for why a
// pointer).
func respKey(h *packet.IPv4, payload []byte, key *Key) bool {
	switch h.Protocol {
	case packet.ProtoICMP:
		var m packet.ICMP
		if err := packet.ParseICMPInto(payload, &m); err != nil {
			return false
		}
		if m.IsError() {
			var inner packet.IPv4
			quotedTransport, err := packet.ParseIPv4Into(m.Payload, &inner)
			if err != nil {
				return false
			}
			key.set(&inner, quotedTransport)
			return true
		}
		if m.Type == packet.ICMPTypeEchoReply {
			// The reply's destination is the probe's source; the reply's
			// source may have been rewritten, so it stays out of the key.
			*key = Key{Kind: KindEcho, Src: h.Dst.As4(), Proto: packet.ProtoICMP}
			put16(key.T[0:], m.ID)
			put16(key.T[2:], m.Seq)
			return true
		}
		return false
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			return false
		}
		if th.Flags&(packet.TCPRst|packet.TCPSyn) == 0 {
			return false
		}
		// Swap the ports back into probe orientation.
		*key = Key{Kind: KindTCP, Src: h.Dst.As4(), Proto: packet.ProtoTCP}
		put16(key.T[0:], th.DstPort)
		put16(key.T[2:], th.SrcPort)
		put32(key.T[4:], th.Ack)
		return true
	default:
		return false
	}
}

func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }

func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
