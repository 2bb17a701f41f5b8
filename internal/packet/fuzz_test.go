package packet_test

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// Native fuzz targets for the wire-format parsers. The seed corpus is not
// hand-written: it is generated by running every probing discipline through
// simulated topologies and collecting the probes, the responses the network
// produced, and the transport payloads inside them — so the fuzzer starts
// from every packet shape the system actually emits (Time Exceeded and Port
// Unreachable quotes, echo replies, TCP segments, zero-TTL and
// NAT-rewritten responses) and mutates outward from there.

// tapTransport records every probe and response crossing a simulator
// transport, plus each response's IP payload (the ICMP or TCP bytes the
// second-stage parsers see).
type tapTransport struct {
	inner tracer.Transport
	add   func([]byte)
}

func (tp *tapTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for _, probe := range probes {
		tp.add(probe)
	}
	tp.inner.ExchangeBatch(probes, out)
	for _, r := range out[:len(probes)] {
		if r.OK {
			tp.add(r.Resp)
			if _, payload, err := packet.ParseIPv4(r.Resp); err == nil {
				tp.add(payload)
			}
		}
	}
}

func (tp *tapTransport) Source() netip.Addr { return tp.inner.Source() }

// corpusSeed seeds f with netsim-generated packets from three figure
// topologies (plain chains, zero-TTL forwarding, NAT rewriting) traced by
// all six disciplines.
func corpusSeed(f *testing.F) {
	f.Helper()
	seen := make(map[string]bool)
	add := func(b []byte) {
		if seen[string(b)] {
			return
		}
		seen[string(b)] = true
		f.Add(append([]byte(nil), b...))
	}
	for _, build := range []func() (*netsim.Network, netip.Addr){
		func() (*netsim.Network, netip.Addr) { fg := topo.BuildFigure3(1); return fg.Net, fg.Dest.Addr },
		func() (*netsim.Network, netip.Addr) { fg := topo.BuildFigure4(1); return fg.Net, fg.Dest.Addr },
		func() (*netsim.Network, netip.Addr) { fg := topo.BuildFigure5(1); return fg.Net, fg.Dest.Addr },
	} {
		net, dest := build()
		tp := &tapTransport{inner: netsim.NewTransport(net), add: add}
		for _, mk := range []func(tracer.Transport, tracer.Options) tracer.Tracer{
			tracer.NewParisUDP, tracer.NewParisICMP, tracer.NewParisTCP,
			tracer.NewClassicUDP, tracer.NewClassicICMP, tracer.NewTCPTraceroute,
		} {
			if _, err := mk(tp, tracer.Options{MaxTTL: 12}).Trace(dest); err != nil {
				f.Fatal(err)
			}
		}
	}
}

// FuzzParseIPv4 fuzzes the IPv4 header parser and, on success, checks the
// marshal round-trip: re-serializing the parsed header with the parsed
// payload must parse back to the same header fields. TotalLen, the
// checksum and PayloadLen are recomputed from the actual bytes, so quoted
// packets truncated by RFC 792 legitimately differ there — everything else
// must survive.
func FuzzParseIPv4(f *testing.F) {
	corpusSeed(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := packet.ParseIPv4(b)
		if err != nil {
			return
		}
		if h.HeaderLen() < packet.IPv4HeaderLen || h.HeaderLen() > len(b) {
			t.Fatalf("parsed header length %d out of range for %d input bytes", h.HeaderLen(), len(b))
		}
		if len(payload) != h.PayloadLen {
			t.Fatalf("payload length %d != parsed PayloadLen %d", len(payload), h.PayloadLen)
		}
		re, err := h.MarshalInto(nil, payload)
		if err != nil {
			t.Fatalf("re-marshal of a parsed header failed: %v", err)
		}
		var h2 packet.IPv4
		payload2, err := packet.ParseIPv4Into(re, &h2)
		if err != nil {
			t.Fatalf("re-parse of a re-marshaled header failed: %v", err)
		}
		if h2.TOS != h.TOS || h2.ID != h.ID || h2.Flags != h.Flags ||
			h2.FragOff != h.FragOff || h2.TTL != h.TTL || h2.Protocol != h.Protocol ||
			h2.Src != h.Src || h2.Dst != h.Dst || !bytes.Equal(h2.Options, h.Options) {
			t.Fatalf("header round-trip mismatch:\nfirst:  %+v\nsecond: %+v", h, &h2)
		}
		if !bytes.Equal(payload2, payload) {
			t.Fatalf("payload round-trip mismatch: %x != %x", payload2, payload)
		}
	})
}

// FuzzParseICMPInto fuzzes the ICMP parser, its message round-trip, and —
// for error messages — the quoted inner packet: a quoted header that parses
// must survive re-marshal + re-parse with identical fields, which is
// exactly the invariant the live transport's response demultiplexer and the
// tracer's matchQuoted lean on.
func FuzzParseICMPInto(f *testing.F) {
	corpusSeed(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var m packet.ICMP
		if err := packet.ParseICMPInto(b, &m); err != nil {
			return
		}
		re, err := m.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of a parsed ICMP message failed: %v", err)
		}
		var m2 packet.ICMP
		if err := packet.ParseICMPInto(re, &m2); err != nil {
			t.Fatalf("re-parse of a re-marshaled ICMP message failed: %v", err)
		}
		if m2.Type != m.Type || m2.Code != m.Code || m2.ID != m.ID || m2.Seq != m.Seq ||
			!bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("ICMP round-trip mismatch:\nfirst:  %+v\nsecond: %+v", &m, &m2)
		}
		if !packet.VerifyICMPChecksum(re) {
			t.Fatal("re-marshaled ICMP message fails its own checksum")
		}
		if !m.IsError() {
			return
		}
		inner, quotedTransport, err := packet.ParseQuoted(&m)
		if err != nil {
			return // truncated or garbage quote: rejecting is correct
		}
		// Round-trip the quoted inner header the way a router would have
		// built it: header + the quoted transport octets.
		requote, err := inner.MarshalInto(nil, quotedTransport)
		if err != nil {
			t.Fatalf("re-marshal of a parsed quoted header failed: %v", err)
		}
		var inner2 packet.IPv4
		qt2, err := packet.ParseIPv4Into(requote, &inner2)
		if err != nil {
			t.Fatalf("re-parse of a re-quoted header failed: %v", err)
		}
		if inner2.Src != inner.Src || inner2.Dst != inner.Dst ||
			inner2.Protocol != inner.Protocol || inner2.ID != inner.ID ||
			inner2.TTL != inner.TTL || !bytes.Equal(qt2, quotedTransport) {
			t.Fatalf("quoted-header round-trip mismatch:\nfirst:  %+v %x\nsecond: %+v %x",
				inner, quotedTransport, &inner2, qt2)
		}
	})
}
