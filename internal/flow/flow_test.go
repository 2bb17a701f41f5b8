package flow

import (
	"net/netip"
	"testing"

	"repro/internal/packet"
)

var (
	src = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	dst = netip.AddrFrom4([4]byte{192, 0, 2, 9})
)

func udpPacket(t *testing.T, srcPort, dstPort uint16, tos uint8, payload []byte) []byte {
	t.Helper()
	dgram, err := packet.MarshalUDPInto(nil, src, dst, &packet.UDP{SrcPort: srcPort, DstPort: dstPort}, payload)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TOS: tos, TTL: 7, Protocol: packet.ProtoUDP, Src: src, Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func icmpPacket(t *testing.T, id, seq uint16) []byte {
	t.Helper()
	body, err := (&packet.ICMP{Type: packet.ICMPTypeEchoRequest, ID: id, Seq: seq}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: 7, Protocol: packet.ProtoICMP, Src: src, Dst: dst}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func extract(t *testing.T, pkt []byte, opts Options) Key {
	t.Helper()
	k, err := Extract(pkt, opts)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return k
}

func TestSamePortsSameKey(t *testing.T) {
	opts := Options{Kind: KeyFirstFourOctets}
	a := extract(t, udpPacket(t, 10007, 20011, 0, []byte{1, 2}), opts)
	b := extract(t, udpPacket(t, 10007, 20011, 0, []byte{9, 9, 9, 9}), opts)
	if !a.Equal(b) {
		t.Error("same five-tuple, different payloads: keys must match (Paris invariant)")
	}
}

func TestVaryingDstPortChangesKey(t *testing.T) {
	opts := Options{Kind: KeyFirstFourOctets}
	a := extract(t, udpPacket(t, 32768, 33435, 0, nil), opts)
	b := extract(t, udpPacket(t, 32768, 33436, 0, nil), opts)
	if a.Equal(b) {
		t.Error("classic traceroute's port increment must change the flow key")
	}
}

// TestUDPChecksumOutsideFirstFourOctets: the UDP checksum lives in octets
// 7-8 of the transport header, so a first-four-octets balancer must ignore
// it — the property that makes Paris UDP probing work.
func TestUDPChecksumOutsideFirstFourOctets(t *testing.T) {
	opts := Options{Kind: KeyFirstFourOctets}
	h := &packet.UDP{SrcPort: 10007, DstPort: 20011}
	mk := func(target uint16) []byte {
		payload, err := packet.CraftUDPPayloadInto(nil, src, dst, h, target, 12)
		if err != nil {
			t.Fatal(err)
		}
		return udpPacketWithPayload(t, h, payload)
	}
	a := extract(t, mk(0x1111), opts)
	b := extract(t, mk(0x2222), opts)
	if !a.Equal(b) {
		t.Error("different UDP checksums changed a first-four-octets flow key")
	}
}

func udpPacketWithPayload(t *testing.T, h *packet.UDP, payload []byte) []byte {
	t.Helper()
	dgram, err := packet.MarshalUDPInto(nil, src, dst, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: 7, Protocol: packet.ProtoUDP, Src: src, Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestICMPChecksumInsideFirstFourOctets: the ICMP checksum occupies octets
// 3-4, so varying the sequence number (which varies the checksum) changes
// the key — classic ICMP traceroute's flaw.
func TestICMPChecksumInsideFirstFourOctets(t *testing.T) {
	opts := Options{Kind: KeyFirstFourOctets}
	first := icmpPacket(t, 4321, 1)
	a := extract(t, first, opts)
	b := extract(t, icmpPacket(t, 4321, 2), opts)
	if a.Equal(b) {
		t.Error("varying Echo Seq must change the flow key (checksum moves)")
	}
	// Paris ICMP: compensate with the identifier; key must be restored.
	target := uint16(first[22])<<8 | uint16(first[23]) // its wire checksum
	id2, err := packet.CompensatingEchoID(2, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := extract(t, icmpPacket(t, id2, 2), opts)
	if !a.Equal(c) {
		t.Error("compensated Echo probe changed the flow key")
	}
}

func TestFiveTupleICMPHasNoPorts(t *testing.T) {
	opts := Options{Kind: KeyFiveTuple}
	a := extract(t, icmpPacket(t, 1, 1), opts)
	b := extract(t, icmpPacket(t, 2, 9), opts)
	if !a.Equal(b) {
		t.Error("five-tuple key for ICMP should ignore the ICMP header")
	}
}

func TestKeyDestinationIgnoresEverythingElse(t *testing.T) {
	opts := Options{Kind: KeyDestination}
	a := extract(t, udpPacket(t, 1, 2, 0, nil), opts)
	b := extract(t, udpPacket(t, 9, 8, 0x10, nil), opts)
	if !a.Equal(b) {
		t.Error("per-destination key must depend on the destination only")
	}
}

// TestTOSInclusion pins that the key leaves the Type of Service octet out.
func TestTOSInclusion(t *testing.T) {
	without := Options{Kind: KeyFirstFourOctets}
	c := extract(t, udpPacket(t, 1, 2, 0x00, nil), without)
	d := extract(t, udpPacket(t, 1, 2, 0x10, nil), without)
	if !c.Equal(d) {
		t.Error("TOS-exclusive key depended on TOS")
	}
}

func TestShortTransportStillKeyed(t *testing.T) {
	// A quoted or malformed packet with fewer than four transport octets
	// must still produce a key (real routers hash whatever is there).
	body := []byte{0x12, 0x34}
	pkt, err := (&packet.IPv4{TTL: 1, Protocol: packet.ProtoUDP, Src: src, Dst: dst}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(pkt, Options{Kind: KeyFirstFourOctets}); err != nil {
		t.Errorf("Extract on short transport: %v", err)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(nil, Options{}); err == nil {
		t.Error("nil packet accepted")
	}
	if _, err := Extract(udpPacket(t, 1, 2, 0, nil), Options{Kind: KeyKind(99)}); err == nil {
		t.Error("unknown key kind accepted")
	}
}

func TestBucketBounds(t *testing.T) {
	k := extract(t, udpPacket(t, 7, 8, 0, nil), Options{Kind: KeyFirstFourOctets})
	for n := 1; n <= 16; n++ {
		if b := k.Bucket(n); b < 0 || b >= n {
			t.Errorf("Bucket(%d) = %d out of range", n, b)
		}
	}
	if k.Bucket(0) != 0 || k.Bucket(1) != 0 {
		t.Error("degenerate bucket counts must map to 0")
	}
}

func TestBucketSpreads(t *testing.T) {
	// Over many flows, a 2-way bucket must use both outputs. This is the
	// statistical assumption behind every loop/diamond probability in
	// the paper (e.g. the 0.25 of Section 2.1).
	counts := [2]int{}
	for p := uint16(0); p < 512; p++ {
		k := extract(t, udpPacket(t, 32768, 33435+p, 0, nil), Options{Kind: KeyFirstFourOctets})
		counts[k.Bucket(2)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("bucket never split: %v", counts)
	}
	ratio := float64(counts[0]) / 512
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("bucket split heavily skewed: %v", counts)
	}
}

func TestHashDeterminism(t *testing.T) {
	k1 := extract(t, udpPacket(t, 1000, 2000, 0, nil), Options{Kind: KeyFirstFourOctets})
	k2 := extract(t, udpPacket(t, 1000, 2000, 0, nil), Options{Kind: KeyFirstFourOctets})
	if k1.Hash() != k2.Hash() {
		t.Error("hash not deterministic")
	}
}
