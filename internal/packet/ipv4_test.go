package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	srcA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	dstA = netip.AddrFrom4([4]byte{192, 0, 2, 7})
)

func mustMarshalIP(t *testing.T, h *IPv4, payload []byte) []byte {
	t.Helper()
	b, err := h.MarshalInto(nil, payload)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return b
}

func TestIPv4RoundTrip(t *testing.T) {
	h := &IPv4{
		TOS:      0x10,
		ID:       0xbeef,
		Flags:    0x2, // don't fragment
		TTL:      17,
		Protocol: ProtoUDP,
		Src:      srcA,
		Dst:      dstA,
	}
	payload := []byte("hello, network")
	pkt := mustMarshalIP(t, h, payload)

	g, pl, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatalf("ParseIPv4: %v", err)
	}
	if g.TOS != h.TOS || g.ID != h.ID || g.Flags != h.Flags ||
		g.TTL != h.TTL || g.Protocol != h.Protocol ||
		g.Src != h.Src || g.Dst != h.Dst {
		t.Errorf("header mismatch: got %+v want %+v", g, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Errorf("payload = %q, want %q", pl, payload)
	}
	if int(g.TotalLen) != len(pkt) {
		t.Errorf("TotalLen = %d, want %d", g.TotalLen, len(pkt))
	}
	// Header checksum must verify.
	if Checksum(pkt[:IPv4HeaderLen]) != 0 {
		t.Error("header checksum does not verify")
	}
}

func TestIPv4Options(t *testing.T) {
	h := &IPv4{
		TTL: 1, Protocol: ProtoICMP, Src: srcA, Dst: dstA,
		Options: []byte{0x94, 0x04, 0x00, 0x00}, // router alert
	}
	pkt := mustMarshalIP(t, h, []byte{1, 2, 3})
	g, pl, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatalf("ParseIPv4: %v", err)
	}
	if g.HeaderLen() != 24 {
		t.Errorf("HeaderLen = %d, want 24", g.HeaderLen())
	}
	if !bytes.Equal(g.Options, h.Options) {
		t.Errorf("options = %x, want %x", g.Options, h.Options)
	}
	if !bytes.Equal(pl, []byte{1, 2, 3}) {
		t.Errorf("payload = %x", pl)
	}
}

// TestParseIPv4IntoOverwrites holds ParseIPv4Into to "h is overwritten
// entirely": a header reused from a packet that had options and a payload
// keeps neither after parsing a plain one, nor after a bad total length.
func TestParseIPv4IntoOverwrites(t *testing.T) {
	withOpts := mustMarshalIP(t, &IPv4{
		TTL: 1, Protocol: ProtoICMP, Src: srcA, Dst: dstA,
		Options: []byte{0x94, 0x04, 0x00, 0x00},
	}, []byte{1, 2, 3})
	plain := &IPv4{TTL: 9, Protocol: ProtoUDP, Src: dstA, Dst: srcA}
	plainPkt := mustMarshalIP(t, plain, nil)
	badLen := append([]byte(nil), plainPkt...)
	badLen[2], badLen[3] = 0, 4 // TotalLen below the header length

	for _, c := range []struct {
		name    string
		pkt     []byte
		wantErr error
	}{{"plain", plainPkt, nil}, {"bad-length", badLen, errBadLength}} {
		var h IPv4
		if _, err := ParseIPv4Into(withOpts, &h); err != nil || h.Options == nil || h.PayloadLen != 3 {
			t.Fatalf("setup: options %x, payload %d, err %v", h.Options, h.PayloadLen, err)
		}
		if _, err := ParseIPv4Into(c.pkt, &h); err != c.wantErr {
			t.Fatalf("%s: err %v, want %v", c.name, err, c.wantErr)
		}
		if h.Options != nil || h.PayloadLen != 0 {
			t.Errorf("%s: options %x and payload length %d survived from the previous packet", c.name, h.Options, h.PayloadLen)
		}
		if c.wantErr == nil {
			want := *plain
			want.TotalLen, want.Checksum = h.TotalLen, h.Checksum
			if !reflect.DeepEqual(h, want) {
				t.Errorf("%s: parsed %+v, want %+v", c.name, h, want)
			}
		}
	}
}

func TestIPv4MarshalErrors(t *testing.T) {
	if _, err := (&IPv4{Src: srcA}).MarshalInto(nil, nil); err == nil {
		t.Error("invalid dst accepted")
	}
	if _, err := (&IPv4{Src: srcA, Dst: dstA, Options: []byte{1}}).MarshalInto(nil, nil); err == nil {
		t.Error("misaligned options accepted")
	}
	big := make([]byte, 0x10000)
	if _, err := (&IPv4{Src: srcA, Dst: dstA}).MarshalInto(nil, big); err == nil {
		t.Error("oversized packet accepted")
	}
}

func TestParseIPv4Errors(t *testing.T) {
	if _, _, err := ParseIPv4(nil); err != errTruncated {
		t.Errorf("nil: err = %v, want errTruncated", err)
	}
	if _, _, err := ParseIPv4(make([]byte, 19)); err != errTruncated {
		t.Errorf("short: err = %v, want errTruncated", err)
	}
	v6 := make([]byte, 40)
	v6[0] = 6 << 4
	if _, _, err := ParseIPv4(v6); err != errBadVersion {
		t.Errorf("v6: err = %v, want errBadVersion", err)
	}
	// IHL below minimum.
	bad := mustMarshalIP(t, &IPv4{TTL: 1, Protocol: 17, Src: srcA, Dst: dstA}, nil)
	bad[0] = 4<<4 | 4 // IHL = 16 bytes
	if _, _, err := ParseIPv4(bad); err != errTruncated {
		t.Errorf("bad IHL: err = %v, want errTruncated", err)
	}
}

func TestParseIPv4TruncatedQuote(t *testing.T) {
	// ICMP errors quote only the header plus eight octets; TotalLen then
	// exceeds the available bytes and the parser must clip gracefully.
	full := mustMarshalIP(t, &IPv4{TTL: 9, Protocol: ProtoUDP, Src: srcA, Dst: dstA},
		make([]byte, 64))
	quoted := full[:IPv4HeaderLen+8]
	g, pl, err := ParseIPv4(quoted)
	if err != nil {
		t.Fatalf("ParseIPv4: %v", err)
	}
	if len(pl) != 8 {
		t.Errorf("clipped payload length = %d, want 8", len(pl))
	}
	if g.TTL != 9 {
		t.Errorf("TTL = %d, want 9", g.TTL)
	}
}

func TestPatchTTLKeepsChecksumValid(t *testing.T) {
	f := func(ttl0, ttl1 uint8, id uint16) bool {
		pkt, err := (&IPv4{TTL: ttl0, ID: id, Protocol: ProtoUDP, Src: srcA, Dst: dstA}).MarshalInto(nil, []byte{1, 2})
		if err != nil {
			return false
		}
		if err := PatchTTL(pkt, ttl1); err != nil {
			return false
		}
		h, _, err := ParseIPv4(pkt)
		return err == nil && h.TTL == ttl1 && Checksum(pkt[:IPv4HeaderLen]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPatchSrcKeepsChecksumValid(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		pkt, err := (&IPv4{TTL: 3, Protocol: ProtoICMP, Src: srcA, Dst: dstA}).MarshalInto(nil, nil)
		if err != nil {
			return false
		}
		newSrc := netip.AddrFrom4([4]byte{a, b, c, d})
		if err := PatchSrc(pkt, newSrc); err != nil {
			return false
		}
		h, _, err := ParseIPv4(pkt)
		return err == nil && h.Src == newSrc && Checksum(pkt[:IPv4HeaderLen]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPatchErrors(t *testing.T) {
	if err := PatchTTL(make([]byte, 10), 5); err == nil {
		t.Error("PatchTTL accepted short packet")
	}
	if err := PatchSrc(make([]byte, 10), srcA); err == nil {
		t.Error("PatchSrc accepted short packet")
	}
	pkt := mustMarshalIP(t, &IPv4{TTL: 1, Protocol: 17, Src: srcA, Dst: dstA}, nil)
	if err := PatchSrc(pkt, netip.Addr{}); err == nil {
		t.Error("PatchSrc accepted invalid address")
	}
}
