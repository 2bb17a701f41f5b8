package tracer

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/tracer/flowkey"
)

// FuzzAnswers ties the tracer's attribution to flowkey's keys — the property
// FuzzMuxDispatch holds the mux to — for arbitrary (probe, response) bytes:
// never a panic; a hop is reported matched only if the response's RespKey
// byte-equals that probe's quoted or terminal key; and a response whose key
// does equal one of them is never flagged, once the tracer can say what kind
// of reply it is. That is what makes flowkey.Quotes, which parseResponse asks
// without building a key, and the keys the transports index by one rule. The
// seeds are every discipline's own probes with genuine answers, the
// neighbouring probe's answers, forgeries one octet off, quotes cut short,
// and junk.
func FuzzAnswers(f *testing.F) {
	for _, d := range sixDisciplines {
		tp := &captureTransport{src: tSrc}
		if _, err := d.mk(tp, Options{MaxTTL: 3, MaxConsecutiveStars: 3}).Trace(tDest); err != nil {
			f.Fatal(err)
		}
		for i, probe := range tp.probes {
			te := timeExceededFrom(f, router(i+1), probe, 250, 9)
			f.Add(probe, te)
			f.Add(tp.probes[(i+1)%len(tp.probes)], te)
			f.Add(probe, portUnreachableFrom(f, tDest, probe))
			// Outer header, ICMP header, quoted header, then the eighth
			// quoted transport octet: the last one the key covers.
			forged := append([]byte(nil), te...)
			forged[20+8+20+7] ^= 0x01
			f.Add(probe, forged)
			f.Add(probe, te[:20+8+20+4]) // quote cut inside the transport octets
			f.Add(probe, te[:20+8+10])   // quote cut inside the IP header
			if term := terminalReplyTo(f, probe); term != nil {
				f.Add(probe, term)
				f.Add(tp.probes[(i+1)%len(tp.probes)], term)
			}
		}
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x45, 0, 0, 20}, []byte{0x45, 0, 0, 20})

	f.Fuzz(func(t *testing.T, probe, resp []byte) {
		h := parseResponse(resp, probe)
		matched := !h.Star() && !h.Mismatched

		quoted, terminal, hasTerminal, ok := flowkey.ProbeKeys(probe)
		key, keyed := flowkey.RespKey(resp)
		equal := ok && keyed && (key == quoted || hasTerminal && key == terminal)
		if matched && !equal {
			t.Fatalf("hop %+v matched, but the response's key (%+v, ok=%v) is neither the probe's quoted key %+v nor its terminal key %+v (has one: %v; probe parses: %v)",
				h, key, keyed, quoted, terminal, hasTerminal, ok)
		}
		if equal && !h.Star() && h.Mismatched {
			t.Fatalf("hop %+v flagged, but the response's key %+v is the probe's own", h, key)
		}
	})
}

// terminalReplyTo is the destination's in-protocol answer to an Echo Request
// or SYN probe; nil for UDP, which has none.
func terminalReplyTo(tb testing.TB, probe []byte) []byte {
	tb.Helper()
	h, payload, err := packet.ParseIPv4(probe)
	if err != nil {
		tb.Fatal(err)
	}
	var body []byte
	switch h.Protocol {
	case packet.ProtoICMP:
		var m packet.ICMP
		if err := packet.ParseICMPInto(payload, &m); err != nil {
			tb.Fatal(err)
		}
		body, err = (&packet.ICMP{Type: packet.ICMPTypeEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}).Marshal()
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			tb.Fatal(err)
		}
		body, err = packet.MarshalTCP(h.Dst, h.Src, &packet.TCP{SrcPort: th.DstPort, DstPort: th.SrcPort,
			Ack: th.Seq + 1, Flags: packet.TCPRst | packet.TCPAck, Window: 65535}, nil)
	default:
		return nil
	}
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := (&packet.IPv4{TTL: 60, Protocol: h.Protocol, Src: h.Dst, Dst: h.Src}).MarshalInto(nil, body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}
