package tracer

import (
	"repro/internal/packet"
	"repro/internal/tracer/flowkey"
)

// parseResponse decodes a serialized response packet into a Hop: what the
// tracer reads off a response (reply kind, quoted probe TTL, response TTL and
// IP ID) from one parse of outer header, ICMP message and quoted header, all
// on the stack — this runs once per exchange on the campaign hot path.
// Whether the response answers probe at all is flowkey's rule (Section 2.1's
// "unique value in the probe header", whichever octets the discipline keeps
// it in): an ICMP error must quote the probe, a terminal reply must carry the
// probe's terminal key.
func parseResponse(resp, probe []byte) Hop {
	h := Hop{ProbeTTL: -1}
	var outer packet.IPv4
	payload, err := packet.ParseIPv4Into(resp, &outer)
	if err != nil {
		return h
	}
	h.Addr = outer.Src
	h.RespTTL = int(outer.TTL)
	h.IPID = outer.ID
	// Not this probe's, until flowkey says it is.
	h.Mismatched = true

	switch outer.Protocol {
	case packet.ProtoICMP:
		var m packet.ICMP
		if err := packet.ParseICMPInto(payload, &m); err != nil {
			return h
		}
		switch m.Type {
		case packet.ICMPTypeTimeExceeded:
			h.Kind = KindTimeExceeded
		case packet.ICMPTypeDestUnreachable:
			switch m.Code {
			case packet.CodePortUnreachable:
				h.Kind = KindPortUnreachable
			case packet.CodeHostUnreachable:
				h.Kind = KindHostUnreachable
			case packet.CodeNetUnreachable:
				h.Kind = KindNetUnreachable
			default:
				h.Kind = KindOtherUnreachable
			}
		case packet.ICMPTypeEchoReply:
			h.Kind = KindEchoReply
			h.Mismatched = !answersTerminal(probe, &outer, payload)
			return h
		default:
			return h
		}
		// Error message: inspect the quoted probe.
		var inner packet.IPv4
		quoted, err := packet.ParseIPv4Into(m.Payload, &inner)
		if err != nil {
			return h
		}
		h.ProbeTTL = int(inner.TTL)
		h.Mismatched = !flowkey.Quotes(probe, &inner, quoted)

	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			return h
		}
		switch {
		case th.Flags&packet.TCPRst != 0:
			h.Kind = KindTCPReset
		case th.Flags&packet.TCPSyn != 0 && th.Flags&packet.TCPAck != 0:
			h.Kind = KindTCPSynAck
		default:
			return h
		}
		h.Mismatched = !answersTerminal(probe, &outer, payload)
	}
	return h
}

// answersTerminal reports whether the Echo Reply or TCP segment with outer
// header h carries probe's terminal key. Built by value: a trace sees at most
// one such answer.
func answersTerminal(probe []byte, h *packet.IPv4, payload []byte) bool {
	key, keyed := flowkey.RespKeyOf(h, payload)
	_, terminal, hasTerminal, _ := flowkey.ProbeKeys(probe)
	return keyed && hasTerminal && key == terminal
}
