package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestTCPRoundTrip(t *testing.T) {
	h := &TCP{
		SrcPort: 31337,
		DstPort: 80,
		Seq:     0xdeadbeef,
		Ack:     0x01020304,
		Flags:   TCPSyn | TCPAck,
		Window:  65535,
		Urgent:  7,
	}
	payload := []byte("GET /")
	seg, err := MarshalTCP(srcA, dstA, h, payload)
	if err != nil {
		t.Fatalf("MarshalTCP: %v", err)
	}
	if !verifyTCPChecksum(srcA, dstA, seg) {
		t.Error("checksum does not verify")
	}
	g := new(TCP)
	pl, trunc, err := ParseTCPInto(seg, g)
	if err != nil || trunc {
		t.Fatalf("ParseTCPInto: err=%v trunc=%v", err, trunc)
	}
	if g.SrcPort != h.SrcPort || g.DstPort != h.DstPort || g.Seq != h.Seq ||
		g.Ack != h.Ack || g.Flags != h.Flags || g.Window != h.Window || g.Urgent != h.Urgent {
		t.Errorf("got %+v, want %+v", g, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Errorf("payload = %q", pl)
	}
	// Corruption must break verification.
	seg[5] ^= 0x40
	if verifyTCPChecksum(srcA, dstA, seg) {
		t.Error("corrupted segment still verifies")
	}
}

func TestTCPOptions(t *testing.T) {
	h := &TCP{SrcPort: 1, DstPort: 2, Flags: TCPSyn,
		Options: []byte{2, 4, 5, 0xb4, 1, 1, 1, 0}} // MSS + padding
	seg, err := MarshalTCP(srcA, dstA, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := new(TCP)
	_, trunc, err := ParseTCPInto(seg, g)
	if err != nil || trunc {
		t.Fatalf("err=%v trunc=%v", err, trunc)
	}
	if !bytes.Equal(g.Options, h.Options) {
		t.Errorf("options = %x, want %x", g.Options, h.Options)
	}
	if g.HeaderLen() != 28 {
		t.Errorf("HeaderLen = %d, want 28", g.HeaderLen())
	}
}

func TestTCPMarshalErrors(t *testing.T) {
	if _, err := MarshalTCP(srcA, dstA, &TCP{Options: []byte{1}}, nil); err == nil {
		t.Error("misaligned options accepted")
	}
	if _, err := MarshalTCP(srcA, dstA, &TCP{Options: make([]byte, 44)}, nil); err == nil {
		t.Error("oversized header accepted")
	}
}

func TestParseTCPQuotedEightOctets(t *testing.T) {
	// Inside ICMP errors only the first eight octets survive: ports and
	// sequence number — exactly the fields Paris TCP matches on.
	seg, err := MarshalTCP(srcA, dstA, &TCP{SrcPort: 30021, DstPort: 80, Seq: 42, Flags: TCPSyn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := new(TCP)
	_, trunc, err := ParseTCPInto(seg[:8], h)
	if err != nil {
		t.Fatalf("ParseTCPInto: %v", err)
	}
	if !trunc {
		t.Error("eight-octet quote not marked truncated")
	}
	if h.SrcPort != 30021 || h.DstPort != 80 || h.Seq != 42 {
		t.Errorf("parsed %+v", h)
	}
}

func TestParseTCPTooShort(t *testing.T) {
	if _, _, err := ParseTCPInto(make([]byte, 7), new(TCP)); err != errTruncated {
		t.Errorf("err = %v, want errTruncated", err)
	}
}

func TestTCPChecksumProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, n uint8) bool {
		payload := make([]byte, int(n)%64)
		seg, err := MarshalTCP(srcA, dstA, &TCP{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: TCPSyn,
		}, payload)
		if err != nil {
			return false
		}
		return verifyTCPChecksum(srcA, dstA, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
