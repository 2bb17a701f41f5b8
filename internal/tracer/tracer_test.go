package tracer

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

var (
	tSrc  = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	tDest = netip.AddrFrom4([4]byte{172, 16, 0, 1})
)

// captureTransport records probes, and the size of every batch submitted,
// and answers them from a script.
type captureTransport struct {
	src     netip.Addr
	probes  [][]byte
	batches []int
	// respond builds the response for the i-th probe (nil = star).
	respond func(i int, probe []byte) []byte
}

func (c *captureTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	c.batches = append(c.batches, len(probes))
	for k, probe := range probes {
		i := len(c.probes)
		c.probes = append(c.probes, append([]byte(nil), probe...))
		var r []byte
		if c.respond != nil {
			r = c.respond(i, probe)
		}
		out[k] = ProbeResult{Resp: append(out[k].Resp[:0], r...)}
		if r != nil {
			out[k].RTT, out[k].OK = time.Millisecond, true
		}
	}
}

func (c *captureTransport) Source() netip.Addr { return c.src }

// timeExceededFrom builds a router's Time Exceeded response for the probe.
func timeExceededFrom(t testing.TB, router netip.Addr, probe []byte, respTTL uint8, ipid uint16) []byte {
	t.Helper()
	// Quote the probe as if it arrived with TTL 1.
	q := append([]byte(nil), probe...)
	if err := packet.PatchTTL(q, 1); err != nil {
		t.Fatal(err)
	}
	m, err := packet.TimeExceeded(q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := packet.ParseIPv4(probe)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&packet.IPv4{TTL: respTTL, ID: ipid, Protocol: packet.ProtoICMP,
		Src: router, Dst: hdr.Src}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func portUnreachableFrom(t testing.TB, host netip.Addr, probe []byte) []byte {
	t.Helper()
	m, err := packet.DestUnreachable(packet.CodePortUnreachable, probe)
	if err != nil {
		t.Fatal(err)
	}
	body, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := packet.ParseIPv4(probe)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&packet.IPv4{TTL: 60, Protocol: packet.ProtoICMP, Src: host, Dst: hdr.Src}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func router(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 9, 0, byte(i)}) }

// scriptedChain answers hop i (< n) with Time Exceeded from router(i), and
// hop n with Port Unreachable from the destination.
func scriptedChain(t *testing.T, n int) *captureTransport {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, err := packet.ParseIPv4(probe)
		if err != nil {
			t.Fatal(err)
		}
		hop := int(hdr.TTL)
		if hop < n {
			return timeExceededFrom(t, router(hop), probe, 255-uint8(hop), uint16(i+1))
		}
		return portUnreachableFrom(t, tDest, probe)
	}
	return tp
}

// --- Header-discipline tests: the Fig. 2 table, verified from the actual
// probe bytes each engine emits. ---

func udpHeaderOf(t *testing.T, probe []byte) (*packet.IPv4, *packet.UDP) {
	t.Helper()
	h, payload, err := packet.ParseIPv4(probe)
	if err != nil {
		t.Fatal(err)
	}
	u := new(packet.UDP)
	if _, err := packet.ParseUDPInto(payload, u); err != nil {
		t.Fatal(err)
	}
	return h, u
}

// TestNewByMethodName: New knows the six probing methods by the Name of
// the Tracer each builds, and refuses any other name.
func TestNewByMethodName(t *testing.T) {
	names := []string{"paris-udp", "paris-icmp", "paris-tcp", "classic-udp", "classic-icmp", "tcptraceroute"}
	if len(methods) != len(names) {
		t.Errorf("%d methods, want %d", len(methods), len(names))
	}
	for _, name := range names {
		tr, err := New(name, &captureTransport{src: tSrc}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name() != name {
			t.Errorf("New(%q) builds a tracer named %q", name, tr.Name())
		}
	}
	if tr, err := New("paris-udp6", &captureTransport{src: tSrc}, Options{}); err == nil || tr != nil {
		t.Errorf("New of an unknown method: %v, %v; want an error", tr, err)
	}
}

func TestClassicUDPVariesDstPort(t *testing.T) {
	tp := scriptedChain(t, 5)
	tr := NewClassicUDP(tp, Options{MaxTTL: 10})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	var prevDst uint16
	for i, p := range tp.probes {
		_, u := udpHeaderOf(t, p)
		if i > 0 {
			if u.DstPort != prevDst+1 {
				t.Errorf("probe %d: dst port %d, want %d (incremented)", i, u.DstPort, prevDst+1)
			}
		} else if u.DstPort != ClassicBaseDstPort {
			t.Errorf("first dst port = %d, want %d", u.DstPort, ClassicBaseDstPort)
		}
		prevDst = u.DstPort
	}
}

func TestParisUDPHoldsFlowAndCodesChecksum(t *testing.T) {
	tp := scriptedChain(t, 5)
	tr := NewParisUDP(tp, Options{MaxTTL: 10, SrcPort: 12345, DstPort: 54321})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	for i, p := range tp.probes {
		h, u := udpHeaderOf(t, p)
		if u.SrcPort != 12345 || u.DstPort != 54321 {
			t.Fatalf("probe %d: ports %d->%d changed (flow identifier must be constant)",
				i, u.SrcPort, u.DstPort)
		}
		if u.Checksum != uint16(i+1) {
			t.Errorf("probe %d: checksum %#04x, want %#04x (the probe identifier)",
				i, u.Checksum, uint16(i+1))
		}
		if !packet.VerifyUDPChecksum(h.Src, h.Dst, p[h.HeaderLen():]) {
			t.Errorf("probe %d: crafted checksum does not verify", i)
		}
	}
}

func TestClassicICMPVariesChecksum(t *testing.T) {
	tp := scriptedChain(t, 4)
	tr := NewClassicICMP(tp, Options{MaxTTL: 10})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	sums := map[uint16]bool{}
	for _, p := range tp.probes {
		h, payload, err := packet.ParseIPv4(p)
		if err != nil {
			t.Fatal(err)
		}
		_ = h
		m := new(packet.ICMP)
		if err := packet.ParseICMPInto(payload, m); err != nil {
			t.Fatal(err)
		}
		sums[m.Checksum] = true
	}
	if len(sums) != len(tp.probes) {
		t.Errorf("classic ICMP produced %d distinct checksums over %d probes; must vary",
			len(sums), len(tp.probes))
	}
}

func TestParisICMPHoldsChecksum(t *testing.T) {
	tp := scriptedChain(t, 4)
	tr := NewParisICMP(tp, Options{MaxTTL: 10})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	sums := map[uint16]bool{}
	seqs := map[uint16]bool{}
	for _, p := range tp.probes {
		_, payload, err := packet.ParseIPv4(p)
		if err != nil {
			t.Fatal(err)
		}
		m := new(packet.ICMP)
		if err := packet.ParseICMPInto(payload, m); err != nil {
			t.Fatal(err)
		}
		sums[m.Checksum] = true
		seqs[m.Seq] = true
		if !packet.VerifyICMPChecksum(payload) {
			t.Error("probe ICMP checksum invalid")
		}
	}
	if len(sums) != 1 {
		t.Errorf("paris ICMP checksum varied (%d values); flow identifier broken", len(sums))
	}
	if len(seqs) != len(tp.probes) {
		t.Errorf("paris ICMP must vary Seq for matching; got %d over %d probes",
			len(seqs), len(tp.probes))
	}
}

func TestParisTCPVariesSeqHoldsPorts(t *testing.T) {
	tp := &captureTransport{src: tSrc} // all stars; we only inspect probes
	tr := NewParisTCP(tp, Options{MaxTTL: 3, MaxConsecutiveStars: 10})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	seqs := map[uint32]bool{}
	for _, p := range tp.probes {
		_, payload, err := packet.ParseIPv4(p)
		if err != nil {
			t.Fatal(err)
		}
		th := new(packet.TCP)
		if _, _, err := packet.ParseTCPInto(payload, th); err != nil {
			t.Fatal(err)
		}
		if th.DstPort != tcptracerouteDstPort {
			t.Errorf("dst port %d, want 80", th.DstPort)
		}
		seqs[th.Seq] = true
	}
	if len(seqs) != len(tp.probes) {
		t.Error("paris TCP must vary the sequence number per probe")
	}
}

func TestTCPTracerouteVariesIPID(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tr := NewTCPTraceroute(tp, Options{MaxTTL: 3, MaxConsecutiveStars: 10})
	if _, err := tr.Trace(tDest); err != nil {
		t.Fatal(err)
	}
	ids := map[uint16]bool{}
	seqs := map[uint32]bool{}
	for _, p := range tp.probes {
		h, payload, err := packet.ParseIPv4(p)
		if err != nil {
			t.Fatal(err)
		}
		th := new(packet.TCP)
		if _, _, err := packet.ParseTCPInto(payload, th); err != nil {
			t.Fatal(err)
		}
		ids[h.ID] = true
		seqs[th.Seq] = true
	}
	if len(ids) != len(tp.probes) {
		t.Error("tcptraceroute must vary the IP Identification field")
	}
	if len(seqs) != 1 {
		t.Error("tcptraceroute keeps TCP fields constant")
	}
}

// --- Engine behaviour ---

func TestTraceStopsAtDestination(t *testing.T) {
	tp := scriptedChain(t, 4)
	rt, err := NewParisUDP(tp, Options{MaxTTL: 30}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Reached() || rt.Halt != HaltDestination {
		t.Errorf("halt = %v, want destination", rt.Halt)
	}
	if len(rt.Hops) != 4 {
		t.Errorf("hops = %d, want 4", len(rt.Hops))
	}
	for i := 0; i < 3; i++ {
		if rt.Hops[i].Addr != router(i+1) {
			t.Errorf("hop %d = %v, want %v", i+1, rt.Hops[i].Addr, router(i+1))
		}
		if rt.Hops[i].Kind != KindTimeExceeded {
			t.Errorf("hop %d kind = %v", i+1, rt.Hops[i].Kind)
		}
		if rt.Hops[i].ProbeTTL != 1 {
			t.Errorf("hop %d probe TTL = %d, want 1", i+1, rt.Hops[i].ProbeTTL)
		}
	}
	last := rt.Hops[3]
	if last.Addr != tDest || last.Kind != KindPortUnreachable {
		t.Errorf("last hop = %v %v", last.Addr, last.Kind)
	}
}

func TestTraceStarsHalt(t *testing.T) {
	tp := &captureTransport{src: tSrc} // nothing ever answers
	rt, err := NewParisUDP(tp, Options{MaxTTL: 30, MaxConsecutiveStars: 8}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Halt != HaltStars {
		t.Errorf("halt = %v, want stars", rt.Halt)
	}
	if len(rt.Hops) != 8 {
		t.Errorf("hops = %d, want 8 (the paper's stop rule)", len(rt.Hops))
	}
}

func TestTraceStarsResetOnResponse(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, _ := packet.ParseIPv4(probe)
		if hdr.TTL%5 == 0 { // answer every fifth hop
			return timeExceededFrom(t, router(int(hdr.TTL)), probe, 250, 1)
		}
		return nil
	}
	rt, err := NewParisUDP(tp, Options{MaxTTL: 14, MaxConsecutiveStars: 8}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Halt != HaltMaxTTL {
		t.Errorf("halt = %v, want max-ttl (stars never reach 8 in a row)", rt.Halt)
	}
}

func TestTraceMinTTLSkipsLocalNetwork(t *testing.T) {
	tp := scriptedChain(t, 6)
	rt, err := NewParisUDP(tp, Options{MinTTL: 2, MaxTTL: 30}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hops[0].TTL != 2 {
		t.Errorf("first hop TTL = %d, want 2", rt.Hops[0].TTL)
	}
	hdr, _, err := packet.ParseIPv4(tp.probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if hdr.TTL != 2 {
		t.Errorf("first probe TTL = %d, want 2", hdr.TTL)
	}
}

func TestTraceHostUnreachableHalts(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, _ := packet.ParseIPv4(probe)
		if hdr.TTL < 3 {
			return timeExceededFrom(t, router(int(hdr.TTL)), probe, 250, 1)
		}
		m, err := packet.DestUnreachable(packet.CodeHostUnreachable, probe)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := m.Marshal()
		resp, _ := (&packet.IPv4{TTL: 60, Protocol: packet.ProtoICMP,
			Src: router(3), Dst: hdr.Src}).MarshalInto(nil, body)
		return resp
	}
	rt, err := NewParisUDP(tp, Options{MaxTTL: 30}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Halt != HaltUnreachable {
		t.Errorf("halt = %v, want unreachable", rt.Halt)
	}
	last := rt.Hops[len(rt.Hops)-1]
	if last.Kind != KindHostUnreachable || last.Kind.Flag() != "!H" {
		t.Errorf("last kind = %v flag %q", last.Kind, last.Kind.Flag())
	}
}

func TestMismatchedResponseFlagged(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		// Quote a DIFFERENT probe: wrong UDP checksum inside the quote.
		hdr, _, _ := packet.ParseIPv4(probe)
		other, err := packet.MarshalUDPInto(nil, hdr.Src, hdr.Dst, &packet.UDP{SrcPort: 1, DstPort: 2}, make([]byte, 4))
		if err != nil {
			t.Fatal(err)
		}
		fake, err := (&packet.IPv4{TTL: 1, Protocol: packet.ProtoUDP, Src: hdr.Src, Dst: hdr.Dst}).MarshalInto(nil, other)
		if err != nil {
			t.Fatal(err)
		}
		return timeExceededFrom(t, router(1), fake, 250, 1)
	}
	rt, err := NewParisUDP(tp, Options{MaxTTL: 1}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Hops[0].Mismatched {
		t.Error("response quoting a different probe was not flagged as mismatched")
	}

	// The stray every discipline must catch by its own identifier (Section
	// 2.1): the answer to the neighbouring probe of the same trace, which
	// differs from this one in that identifier and the TTL alone.
	for _, d := range sixDisciplines {
		t.Run(d.name, func(t *testing.T) {
			tp := &captureTransport{src: tSrc}
			tp.respond = func(int, []byte) []byte {
				return timeExceededFrom(t, router(1), tp.probes[0], 250, 1)
			}
			rt, err := d.mk(tp, Options{MaxTTL: 2}).Trace(tDest)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Hops[0].Mismatched {
				t.Error("the first probe's own answer was flagged as mismatched")
			}
			if !rt.Hops[1].Mismatched {
				t.Error("the first probe's answer, delivered to the second, was not flagged as mismatched")
			}
		})
	}
}

var sixDisciplines = []struct {
	name string
	mk   func(Transport, Options) Tracer
}{
	{"paris-udp", NewParisUDP},
	{"paris-icmp", NewParisICMP},
	{"paris-tcp", NewParisTCP},
	{"classic-udp", NewClassicUDP},
	{"classic-icmp", NewClassicICMP},
	{"tcptraceroute", NewTCPTraceroute},
}

func TestHopObservables(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		return timeExceededFrom(t, router(1), probe, 247, 0xabcd)
	}
	rt, err := NewParisUDP(tp, Options{MaxTTL: 1}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Hops[0]
	if h.RespTTL != 247 {
		t.Errorf("RespTTL = %d, want 247", h.RespTTL)
	}
	if h.IPID != 0xabcd {
		t.Errorf("IPID = %#04x, want 0xabcd", h.IPID)
	}
	if h.ProbeTTL != 1 {
		t.Errorf("ProbeTTL = %d, want 1", h.ProbeTTL)
	}
	if h.RTT != time.Millisecond {
		t.Errorf("RTT = %v", h.RTT)
	}
}

func TestProbesPerHopRecordsAll(t *testing.T) {
	tp := scriptedChain(t, 3)
	rt, err := NewClassicUDP(tp, Options{MaxTTL: 10, ProbesPerHop: 3}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.All) != len(rt.Hops) {
		t.Fatalf("All has %d entries, Hops %d", len(rt.All), len(rt.Hops))
	}
	for i, attempts := range rt.All {
		if len(attempts) != 3 {
			t.Errorf("hop %d: %d attempts, want 3", i+1, len(attempts))
		}
	}
	if len(tp.probes) != 3*len(rt.Hops) {
		t.Errorf("probes sent = %d, want %d", len(tp.probes), 3*len(rt.Hops))
	}
}

func TestEchoReplyTerminatesICMPTrace(t *testing.T) {
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, _ := packet.ParseIPv4(probe)
		if hdr.TTL < 3 {
			return timeExceededFrom(t, router(int(hdr.TTL)), probe, 250, 1)
		}
		return terminalReplyTo(t, probe)
	}
	rt, err := NewParisICMP(tp, Options{MaxTTL: 30}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Halt != HaltDestination {
		t.Errorf("halt = %v, want destination", rt.Halt)
	}
	if last := rt.Hops[len(rt.Hops)-1]; last.Kind != KindEchoReply {
		t.Errorf("last kind = %v, want echo-reply", last.Kind)
	}
}

func TestRouteAddressesTuple(t *testing.T) {
	tp := scriptedChain(t, 3)
	rt, err := NewParisUDP(tp, Options{MaxTTL: 10}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	addrs := rt.Addresses()
	if len(addrs) != 3 {
		t.Fatalf("len = %d", len(addrs))
	}
	if addrs[0] != router(1) || addrs[2] != tDest {
		t.Errorf("addresses = %v", addrs)
	}
}

// mkObsRoute builds a route with distinctive observables for the
// fingerprint and equality tests.
func mkObsRoute() *Route {
	return &Route{
		Dest:   tDest,
		Source: tSrc,
		Halt:   HaltDestination,
		Hops: []Hop{
			{TTL: 2, Addr: netip.AddrFrom4([4]byte{10, 0, 0, 2}), Kind: KindTimeExceeded, ProbeTTL: 1, RespTTL: 253, IPID: 7, RTT: 3 * time.Millisecond},
			{TTL: 3, Kind: KindNone, ProbeTTL: -1},
			{TTL: 4, Addr: tDest, Kind: KindPortUnreachable, ProbeTTL: 1, RespTTL: 251, IPID: 9, RTT: 5 * time.Millisecond},
		},
	}
}

func TestRouteEqualAndFingerprint(t *testing.T) {
	a, b := mkObsRoute(), mkObsRoute()
	if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical routes must compare Equal with equal fingerprints")
	}

	// RTT, IP ID and the All table are per-exchange quantities, not path
	// observables: they differ round over round even when the path did
	// not, so they must not break interning.
	b.Hops[0].RTT = 40 * time.Millisecond
	b.Hops[0].IPID = 12345
	b.All = [][]Hop{b.Hops[:1]}
	if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
		t.Error("RTT/IPID/All changes must not affect Equal or Fingerprint")
	}

	mutations := []struct {
		name string
		mut  func(r *Route)
	}{
		{"dest", func(r *Route) { r.Dest = netip.AddrFrom4([4]byte{172, 16, 0, 2}) }},
		{"source", func(r *Route) { r.Source = netip.AddrFrom4([4]byte{10, 0, 0, 99}) }},
		{"halt", func(r *Route) { r.Halt = HaltStars }},
		{"hop count", func(r *Route) { r.Hops = r.Hops[:2] }},
		{"hop ttl", func(r *Route) { r.Hops[0].TTL = 9 }},
		{"hop addr", func(r *Route) { r.Hops[0].Addr = netip.AddrFrom4([4]byte{10, 0, 0, 3}) }},
		{"hop star", func(r *Route) { r.Hops[0].Kind = KindNone; r.Hops[0].Addr = netip.Addr{} }},
		{"hop kind", func(r *Route) { r.Hops[2].Kind = KindEchoReply }},
		{"probe ttl", func(r *Route) { r.Hops[0].ProbeTTL = 0 }},
		{"resp ttl", func(r *Route) { r.Hops[0].RespTTL = 200 }},
		{"mismatched", func(r *Route) { r.Hops[0].Mismatched = true }},
	}
	for _, m := range mutations {
		c := mkObsRoute()
		m.mut(c)
		if a.Equal(c) {
			t.Errorf("%s: mutated route still compares Equal", m.name)
		}
		if a.Fingerprint() == c.Fingerprint() {
			t.Errorf("%s: mutated route kept the same fingerprint", m.name)
		}
	}
}

func TestRouteEqualNil(t *testing.T) {
	var nilRoute *Route
	r := mkObsRoute()
	if nilRoute.Equal(r) || r.Equal(nilRoute) {
		t.Error("nil route compares Equal to a real one")
	}
	if !nilRoute.Equal(nilRoute) {
		t.Error("nil must equal nil")
	}
}
