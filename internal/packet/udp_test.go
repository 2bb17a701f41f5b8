package packet

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestUDPRoundTrip(t *testing.T) {
	h := &UDP{SrcPort: 12345, DstPort: 33435}
	payload := []byte("probe payload")
	dgram, err := MarshalUDPInto(nil, srcA, dstA, h, payload)
	if err != nil {
		t.Fatalf("MarshalUDPInto: %v", err)
	}
	g := new(UDP)
	pl, err := ParseUDPInto(dgram, g)
	if err != nil {
		t.Fatalf("ParseUDPInto: %v", err)
	}
	if g.SrcPort != h.SrcPort || g.DstPort != h.DstPort {
		t.Errorf("ports = %d,%d want %d,%d", g.SrcPort, g.DstPort, h.SrcPort, h.DstPort)
	}
	if int(g.Length) != len(dgram) {
		t.Errorf("Length = %d, want %d", g.Length, len(dgram))
	}
	if string(pl) != string(payload) {
		t.Errorf("payload = %q", pl)
	}
	if !VerifyUDPChecksum(srcA, dstA, dgram) {
		t.Error("checksum does not verify")
	}
	// Corrupt a byte: must fail verification.
	dgram[9] ^= 0xff
	if VerifyUDPChecksum(srcA, dstA, dgram) {
		t.Error("corrupted datagram still verifies")
	}
}

func TestUDPChecksumZeroMeansNone(t *testing.T) {
	dgram, err := MarshalUDPInto(nil, srcA, dstA, &UDP{SrcPort: 1, DstPort: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dgram[6], dgram[7] = 0, 0
	if !VerifyUDPChecksum(srcA, dstA, dgram) {
		t.Error("zero checksum (no-checksum) should verify trivially")
	}
}

func TestParseUDPTruncated(t *testing.T) {
	if _, err := ParseUDPInto(make([]byte, 7), new(UDP)); err != errTruncated {
		t.Errorf("err = %v, want errTruncated", err)
	}
	// Quoted probes are clipped to eight octets: header only, no payload.
	dgram, _ := MarshalUDPInto(nil, srcA, dstA, &UDP{SrcPort: 7, DstPort: 9}, []byte("xxxx"))
	h := new(UDP)
	pl, err := ParseUDPInto(dgram[:8], h)
	if err != nil {
		t.Fatalf("ParseUDPInto(8 octets): %v", err)
	}
	if h.SrcPort != 7 || h.DstPort != 9 || len(pl) != 0 {
		t.Errorf("got %+v payload %d bytes", h, len(pl))
	}
}

// TestCraftUDPPayloadExact is the core Paris traceroute property: for any
// flow and any nonzero target, the crafted payload makes the UDP checksum
// equal the target exactly, and the datagram still verifies.
func TestCraftUDPPayloadExact(t *testing.T) {
	f := func(sp, dp, target uint16, a, bb, c, d byte, extra uint8) bool {
		if target == 0 {
			target = 1
		}
		src := netip.AddrFrom4([4]byte{a, bb, c, d})
		dst := netip.AddrFrom4([4]byte{d, c, bb, a})
		h := &UDP{SrcPort: sp, DstPort: dp}
		n := 2 + int(extra)%30
		payload, err := CraftUDPPayloadInto(nil, src, dst, h, target, n)
		if err != nil {
			return false
		}
		dgram, err := MarshalUDPInto(nil, src, dst, h, payload)
		if err != nil {
			return false
		}
		got := uint16(dgram[6])<<8 | uint16(dgram[7])
		return got == target && VerifyUDPChecksum(src, dst, dgram)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCraftUDPPayloadErrors(t *testing.T) {
	h := &UDP{SrcPort: 1, DstPort: 2}
	if _, err := CraftUDPPayloadInto(nil, srcA, dstA, h, 0, 8); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := CraftUDPPayloadInto(nil, srcA, dstA, h, 7, 1); err == nil {
		t.Error("one-byte payload accepted")
	}
}

func TestCraftUDPPayloadDistinctTargetsDistinctPayloads(t *testing.T) {
	h := &UDP{SrcPort: 10007, DstPort: 20011}
	seen := map[uint16]bool{}
	for target := uint16(1); target <= 200; target++ {
		payload, err := CraftUDPPayloadInto(nil, srcA, dstA, h, target, 12)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		word := uint16(payload[0])<<8 | uint16(payload[1])
		if seen[word] {
			t.Fatalf("payload word %#04x reused at target %d", word, target)
		}
		seen[word] = true
	}
}

func BenchmarkCraftUDPPayload(b *testing.B) {
	h := &UDP{SrcPort: 10007, DstPort: 20011}
	for i := 0; i < b.N; i++ {
		if _, err := CraftUDPPayloadInto(nil, srcA, dstA, h, uint16(i%0xfffe)+1, 12); err != nil {
			b.Fatal(err)
		}
	}
}
