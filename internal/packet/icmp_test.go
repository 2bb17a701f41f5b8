package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestICMPEchoRoundTrip(t *testing.T) {
	m := &ICMP{Type: ICMPTypeEchoRequest, ID: 4321, Seq: 17, Payload: []byte("ping")}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !VerifyICMPChecksum(b) {
		t.Error("checksum does not verify")
	}
	g := new(ICMP)
	if err := ParseICMPInto(b, g); err != nil {
		t.Fatalf("ParseICMPInto: %v", err)
	}
	if g.Type != m.Type || g.ID != m.ID || g.Seq != m.Seq || !bytes.Equal(g.Payload, m.Payload) {
		t.Errorf("got %+v, want %+v", g, m)
	}
	if g.IsError() {
		t.Error("echo request classified as error message")
	}
}

func TestParseICMPTruncated(t *testing.T) {
	if err := ParseICMPInto(make([]byte, 7), new(ICMP)); err != errTruncated {
		t.Errorf("err = %v, want errTruncated", err)
	}
}

func TestTimeExceededQuotesHeaderPlusEight(t *testing.T) {
	inner, err := (&IPv4{TTL: 1, Protocol: ProtoUDP, ID: 99, Src: srcA, Dst: dstA}).
		MarshalInto(nil, append(make([]byte, 8), []byte("should be dropped from quote")...))
	if err != nil {
		t.Fatal(err)
	}
	m, err := TimeExceeded(inner)
	if err != nil {
		t.Fatalf("TimeExceeded: %v", err)
	}
	if m.Type != ICMPTypeTimeExceeded || m.Code != CodeTTLExceeded {
		t.Errorf("type/code = %d/%d", m.Type, m.Code)
	}
	if len(m.Payload) != IPv4HeaderLen+8 {
		t.Errorf("quote length = %d, want %d", len(m.Payload), IPv4HeaderLen+8)
	}
	q, transport, err := ParseQuoted(m)
	if err != nil {
		t.Fatalf("ParseQuoted: %v", err)
	}
	if q.TTL != 1 || q.ID != 99 || q.Protocol != ProtoUDP {
		t.Errorf("quoted header %+v", q)
	}
	if len(transport) != 8 {
		t.Errorf("quoted transport = %d bytes, want 8", len(transport))
	}
}

func TestQuotePacketShorterThanEight(t *testing.T) {
	inner, err := (&IPv4{TTL: 1, Protocol: ProtoICMP, Src: srcA, Dst: dstA}).MarshalInto(nil, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuotePacket(inner)
	if err != nil {
		t.Fatalf("QuotePacket: %v", err)
	}
	if len(q) != IPv4HeaderLen+3 {
		t.Errorf("quote length = %d, want %d", len(q), IPv4HeaderLen+3)
	}
}

func TestDestUnreachableCodes(t *testing.T) {
	inner, err := (&IPv4{TTL: 5, Protocol: ProtoUDP, Src: srcA, Dst: dstA}).MarshalInto(nil, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []uint8{CodeNetUnreachable, CodeHostUnreachable, CodePortUnreachable} {
		m, err := DestUnreachable(code, inner)
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		if m.Type != ICMPTypeDestUnreachable || m.Code != code {
			t.Errorf("type/code = %d/%d, want %d/%d", m.Type, m.Code, ICMPTypeDestUnreachable, code)
		}
		if !m.IsError() {
			t.Error("unreachable not classified as error")
		}
	}
}

func TestParseQuotedOnNonError(t *testing.T) {
	m := &ICMP{Type: ICMPTypeEchoReply}
	if _, _, err := ParseQuoted(m); err == nil {
		t.Error("ParseQuoted accepted an echo reply")
	}
}

// TestCompensatingEchoID is the Paris ICMP property: for any sequence
// number and payload, the compensating identifier keeps the Echo checksum
// at the chosen target. The single exception is target 0xffff, which
// requires a one's-complement sum of +0 — unreachable for nonzero data
// (RFC 1071 arithmetic); there the function must report an error rather
// than return a wrong identifier.
func TestCompensatingEchoID(t *testing.T) {
	f := func(seq, target uint16, payloadLen uint8) bool {
		payload := make([]byte, int(payloadLen)%32)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		id, err := CompensatingEchoID(seq, target, payload)
		if err != nil {
			// Only the unreachable all-ones target may fail.
			return target == 0xffff
		}
		return echoChecksum(ICMPTypeEchoRequest, 0, id, seq, payload) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCompensatingEchoIDHoldsChecksumAcrossSequence mirrors what the Paris
// ICMP prober does for a whole trace: Seq counts up, ID compensates, and
// the checksum — the flow-identifying octets — never moves.
func TestCompensatingEchoIDHoldsChecksumAcrossSequence(t *testing.T) {
	payload := make([]byte, 12)
	const target = 0xbeef
	for seq := uint16(1); seq <= 64; seq++ {
		id, err := CompensatingEchoID(seq, target, payload)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		m := &ICMP{Type: ICMPTypeEchoRequest, ID: id, Seq: seq, Payload: payload}
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got := uint16(b[2])<<8 | uint16(b[3])
		if got != target {
			t.Fatalf("seq %d: wire checksum %#04x, want %#04x", seq, got, target)
		}
	}
}
