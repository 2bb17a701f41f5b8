package netsim

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/packet"
)

// testNet builds source -> gw -> r1 -> r2 -> r3 -> host, returning the
// network, the routers, and the host.
func testNet(t *testing.T) (*Network, []*Router, *Host) {
	t.Helper()
	n := New(1)
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addr := func(x byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 1, x}) }

	gw := NewRouter("gw", addr(1))
	r1 := NewRouter("r1", addr(2))
	r2 := NewRouter("r2", addr(3))
	r3 := NewRouter("r3", addr(4))
	host := NewHost("h", netip.AddrFrom4([4]byte{172, 16, 0, 1}))
	for _, r := range []*Router{gw, r1, r2, r3} {
		n.AddRouter(r)
	}
	n.AttachHost(host, addr(4))
	n.SetSource(src, addr(1))

	all := netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0)
	hostP := netip.PrefixFrom(host.Addr, 32)
	srcP := netip.PrefixFrom(src, 32)
	gw.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: addr(2)}}})
	gw.AddRoute(Route{Prefix: srcP, Hops: []NextHop{{Via: src}}})
	r1.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: addr(3)}}})
	r1.AddRoute(Route{Prefix: all, Hops: []NextHop{{Via: addr(1)}}})
	r2.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: addr(4)}}})
	r2.AddRoute(Route{Prefix: all, Hops: []NextHop{{Via: addr(2)}}})
	r3.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: host.Addr}}})
	r3.AddRoute(Route{Prefix: all, Hops: []NextHop{{Via: addr(3)}}})
	// Adjacency /32 routes so router interfaces are probeable directly.
	gw.AddRoute(Route{Prefix: netip.PrefixFrom(addr(2), 32), Hops: []NextHop{{Via: addr(2)}}})
	gw.AddRoute(Route{Prefix: netip.PrefixFrom(addr(3), 32), Hops: []NextHop{{Via: addr(2)}}})
	gw.AddRoute(Route{Prefix: netip.PrefixFrom(addr(4), 32), Hops: []NextHop{{Via: addr(2)}}})
	r1.AddRoute(Route{Prefix: netip.PrefixFrom(addr(3), 32), Hops: []NextHop{{Via: addr(3)}}})
	r1.AddRoute(Route{Prefix: netip.PrefixFrom(addr(4), 32), Hops: []NextHop{{Via: addr(3)}}})
	r2.AddRoute(Route{Prefix: netip.PrefixFrom(addr(4), 32), Hops: []NextHop{{Via: addr(4)}}})
	return n, []*Router{gw, r1, r2, r3}, host
}

func udpProbe(t *testing.T, n *Network, dst netip.Addr, ttl uint8, srcPort, dstPort uint16) []byte {
	t.Helper()
	dgram, err := packet.MarshalUDPInto(nil, n.Source(), dst, &packet.UDP{SrcPort: srcPort, DstPort: dstPort}, make([]byte, 12))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: ttl, Protocol: packet.ProtoUDP, Src: n.Source(), Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func parseResp(t *testing.T, resp []byte) (*packet.IPv4, *packet.ICMP) {
	t.Helper()
	h, payload, err := packet.ParseIPv4(resp)
	if err != nil {
		t.Fatalf("response header: %v", err)
	}
	if h.Protocol != packet.ProtoICMP {
		return h, nil
	}
	m := new(packet.ICMP)
	if err := packet.ParseICMPInto(payload, m); err != nil {
		t.Fatalf("response ICMP: %v", err)
	}
	return h, m
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	n, routers, host := testNet(t)
	for hop := 1; hop <= 3; hop++ {
		resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, uint8(hop), 111, 222))
		if !ok {
			t.Fatalf("hop %d: no response", hop)
		}
		h, m := parseResp(t, resp)
		if h.Src != routers[hop-1].Iface(0) {
			t.Errorf("hop %d answered by %v, want %v", hop, h.Src, routers[hop-1].Iface(0))
		}
		if m == nil || m.Type != packet.ICMPTypeTimeExceeded {
			t.Fatalf("hop %d: not a Time Exceeded", hop)
		}
		inner, _, err := packet.ParseQuoted(m)
		if err != nil {
			t.Fatalf("hop %d: quote: %v", hop, err)
		}
		if inner.TTL != 1 {
			t.Errorf("hop %d: quoted probe TTL = %d, want 1", hop, inner.TTL)
		}
		if inner.Dst != host.Addr {
			t.Errorf("hop %d: quoted dst = %v", hop, inner.Dst)
		}
	}
}

func TestResponseTTLReflectsReturnPath(t *testing.T) {
	n, _, host := testNet(t)
	// Router at hop k originates with TTL 255 and the response is
	// decremented by the k-1 routers on the way back.
	for hop := 1; hop <= 3; hop++ {
		resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, uint8(hop), 111, 222))
		if !ok {
			t.Fatalf("hop %d: no response", hop)
		}
		h, _ := parseResp(t, resp)
		want := 255 - (hop - 1)
		if int(h.TTL) != want {
			t.Errorf("hop %d: response TTL %d, want %d", hop, h.TTL, want)
		}
	}
}

func TestDeliveryToHostPortUnreachable(t *testing.T) {
	n, _, host := testNet(t)
	resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 10, 111, 33435))
	if !ok {
		t.Fatal("no response from host")
	}
	h, m := parseResp(t, resp)
	if h.Src != host.Addr {
		t.Errorf("answered by %v, want host %v", h.Src, host.Addr)
	}
	if m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodePortUnreachable {
		t.Errorf("type/code = %d/%d, want 3/3", m.Type, m.Code)
	}
}

func TestHostEchoReply(t *testing.T) {
	n, _, host := testNet(t)
	body, err := (&packet.ICMP{Type: packet.ICMPTypeEchoRequest, ID: 7, Seq: 9}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: 20, Protocol: packet.ProtoICMP, Src: n.Source(), Dst: host.Addr}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, ok := n.Exchange(pkt)
	if !ok {
		t.Fatal("no echo reply")
	}
	_, m := parseResp(t, resp)
	if m.Type != packet.ICMPTypeEchoReply || m.ID != 7 || m.Seq != 9 {
		t.Errorf("echo reply = %+v", m)
	}
}

func TestHostTCPResponses(t *testing.T) {
	n, _, host := testNet(t)
	host.OpenTCPPorts = map[uint16]bool{80: true}
	for _, tc := range []struct {
		port     uint16
		wantFlag uint8
	}{
		{80, packet.TCPSyn | packet.TCPAck},
		{81, packet.TCPRst | packet.TCPAck},
	} {
		seg, err := packet.MarshalTCP(n.Source(), host.Addr, &packet.TCP{
			SrcPort: 5555, DstPort: tc.port, Seq: 100, Flags: packet.TCPSyn,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := (&packet.IPv4{TTL: 20, Protocol: packet.ProtoTCP, Src: n.Source(), Dst: host.Addr}).MarshalInto(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		resp, _, ok := n.Exchange(pkt)
		if !ok {
			t.Fatalf("port %d: no response", tc.port)
		}
		h, payload, err := packet.ParseIPv4(resp)
		if err != nil || h.Protocol != packet.ProtoTCP {
			t.Fatalf("port %d: response proto %d err %v", tc.port, h.Protocol, err)
		}
		th := new(packet.TCP)
		if _, _, err := packet.ParseTCPInto(payload, th); err != nil {
			t.Fatal(err)
		}
		if th.Flags != tc.wantFlag {
			t.Errorf("port %d: flags %#02x, want %#02x", tc.port, th.Flags, tc.wantFlag)
		}
		if th.Ack != 101 {
			t.Errorf("port %d: ack %d, want 101", tc.port, th.Ack)
		}
	}
}

func TestSilentRouterProducesStar(t *testing.T) {
	n, routers, host := testNet(t)
	routers[1].SetFaults(Faults{Silent: true})
	if _, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 2, 1, 2)); ok {
		t.Error("silent router answered")
	}
	// Other hops still answer.
	if _, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 3, 1, 2)); !ok {
		t.Error("hop past the silent router went quiet")
	}
}

func TestUnreachableFault(t *testing.T) {
	n, routers, host := testNet(t)
	routers[2].SetFaults(Faults{Unreachable: true})
	// Probe expiring at the faulty router: normal Time Exceeded.
	resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 3, 1, 2))
	if !ok {
		t.Fatal("no response")
	}
	_, m := parseResp(t, resp)
	if m.Type != packet.ICMPTypeTimeExceeded {
		t.Errorf("expiring probe drew type %d, want Time Exceeded", m.Type)
	}
	// Probe that must transit: Destination Unreachable (host code).
	resp, _, ok = n.Exchange(udpProbe(t, n, host.Addr, 4, 1, 2))
	if !ok {
		t.Fatal("no response")
	}
	h, m := parseResp(t, resp)
	if m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodeHostUnreachable {
		t.Errorf("transit probe drew %d/%d, want 3/1", m.Type, m.Code)
	}
	if h.Src != routers[2].Iface(0) {
		t.Errorf("!H from %v, want the faulty router %v", h.Src, routers[2].Iface(0))
	}
}

func TestZeroTTLForwarding(t *testing.T) {
	n, routers, host := testNet(t)
	routers[1].SetFaults(Faults{ZeroTTLForward: true}) // r1 at hop 2
	// Probe with TTL 2 should be forwarded dead to r2, which quotes TTL 0.
	resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 2, 1, 2))
	if !ok {
		t.Fatal("no response")
	}
	h, m := parseResp(t, resp)
	if h.Src != routers[2].Iface(0) {
		t.Errorf("answered by %v, want downstream router %v", h.Src, routers[2].Iface(0))
	}
	inner, _, err := packet.ParseQuoted(m)
	if err != nil {
		t.Fatal(err)
	}
	if inner.TTL != 0 {
		t.Errorf("quoted probe TTL = %d, want 0", inner.TTL)
	}
	// The quoted packet's header checksum must still verify after the
	// in-flight TTL patching.
	if packet.Checksum(m.Payload[:inner.HeaderLen()]) != 0 {
		t.Error("quoted header checksum invalid after TTL patch")
	}
}

func TestForwardOverrideLoopsUntilTTLDeath(t *testing.T) {
	n, routers, host := testNet(t)
	// r2 bounces everything back to r1: probes with TTL > 2 ping-pong and
	// die inside the loop, alternating responders.
	routers[2].SetFaults(Faults{ForwardOverride: routers[1].Iface(0)})
	var responders []netip.Addr
	for ttl := 2; ttl <= 7; ttl++ {
		resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, uint8(ttl), 1, 2))
		if !ok {
			t.Fatalf("ttl %d: no response", ttl)
		}
		h, _ := parseResp(t, resp)
		responders = append(responders, h.Src)
	}
	// From TTL 2 on: r1, r2, r1, r2, ... (alternating).
	for i := 1; i < len(responders); i++ {
		if responders[i] == responders[i-1] {
			t.Fatalf("expected alternation, got %v", responders)
		}
	}
}

func TestNATRewritesICMPSource(t *testing.T) {
	n := New(1)
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	pub := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	natPub := netip.AddrFrom4([4]byte{10, 0, 1, 2})
	natPriv := netip.AddrFrom4([4]byte{192, 168, 0, 1})
	insideIf := netip.AddrFrom4([4]byte{192, 168, 0, 2})
	hostAddr := netip.AddrFrom4([4]byte{192, 168, 0, 100})
	inside := netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 168, 0, 0}), 24)

	gw := NewRouter("gw", pub)
	nat := NewRouter("nat", natPub, natPriv)
	nat.SetNAT(NAT{Public: natPub, Inside: inside})
	in := NewRouter("in", insideIf)
	host := NewHost("h", hostAddr)
	n.AddRouter(gw)
	n.AddRouter(nat)
	n.AddRouter(in)
	n.AttachHost(host, insideIf)
	n.SetSource(src, pub)

	all := netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0)
	hostP := netip.PrefixFrom(hostAddr, 32)
	gw.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: natPub}}})
	gw.AddRoute(Route{Prefix: netip.PrefixFrom(src, 32), Hops: []NextHop{{Via: src}}})
	nat.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: insideIf}}})
	nat.AddRoute(Route{Prefix: all, Hops: []NextHop{{Via: pub}}})
	in.AddRoute(Route{Prefix: hostP, Hops: []NextHop{{Via: hostAddr}}})
	in.AddRoute(Route{Prefix: all, Hops: []NextHop{{Via: natPriv}}})

	probe := udpProbe(t, n, hostAddr, 3, 1, 2) // expires at the inside router
	resp, _, ok := n.Exchange(probe)
	if !ok {
		t.Fatal("no response")
	}
	h, _ := parseResp(t, resp)
	if h.Src != natPub {
		t.Errorf("inside router's response source = %v, want rewritten %v", h.Src, natPub)
	}
	// Rewriting must keep the IP header checksum valid.
	if packet.Checksum(resp[:packet.IPv4HeaderLen]) != 0 {
		t.Error("rewritten response has invalid header checksum")
	}

	// The host's own response (port unreachable) is rewritten too.
	resp, _, ok = n.Exchange(udpProbe(t, n, hostAddr, 9, 1, 2))
	if !ok {
		t.Fatal("no host response")
	}
	h, m := parseResp(t, resp)
	if h.Src != natPub {
		t.Errorf("host response source = %v, want rewritten %v", h.Src, natPub)
	}
	if m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodePortUnreachable {
		t.Errorf("host response type/code %d/%d", m.Type, m.Code)
	}
}

// TestIPIDStride: a router's answers to consecutive probes of one trace
// (IP IDs 1, 2, 3: each probe's index plus one) step by its stride, the same
// probe sent again draws the same IP ID, and another router answering the
// same probes stamps other IP IDs.
func TestIPIDStride(t *testing.T) {
	n, routers, host := testNet(t)
	routers[0].SetIPIDStride(5)
	answer := func(ttl uint8, id uint16) uint16 {
		t.Helper()
		h, payload, err := packet.ParseIPv4(udpProbe(t, n, host.Addr, ttl, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		h.ID = id
		probe, err := h.MarshalInto(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, _, ok := n.Exchange(probe)
		if !ok {
			t.Fatal("no response")
		}
		rh, _ := parseResp(t, resp)
		return rh.ID
	}
	ids := []uint16{answer(1, 1), answer(1, 2), answer(1, 3)}
	if ids[1]-ids[0] != 5 || ids[2]-ids[1] != 5 {
		t.Errorf("IP IDs %v, want stride 5", ids)
	}
	if again := answer(1, 2); again != ids[1] {
		t.Errorf("the second probe sent again drew IP ID %d, want %d", again, ids[1])
	}
	if other := answer(2, 1); other == ids[0] {
		t.Errorf("routers %s and %s both answered the first probe with IP ID %d", routers[0].Name, routers[1].Name, other)
	}
}

func TestRouterAnsweredDirectly(t *testing.T) {
	n, routers, _ := testNet(t)
	target := routers[2].Iface(0) // probe the router itself
	resp, _, ok := n.Exchange(udpProbe(t, n, target, 10, 1, 33435))
	if !ok {
		t.Fatal("router did not answer a probe addressed to it")
	}
	h, m := parseResp(t, resp)
	if h.Src != target {
		t.Errorf("answered by %v", h.Src)
	}
	if m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodePortUnreachable {
		t.Errorf("type/code %d/%d, want 3/3", m.Type, m.Code)
	}
}

func TestNoICMPAboutICMPErrors(t *testing.T) {
	n, _, host := testNet(t)
	// Build an ICMP Time Exceeded packet destined somewhere unreachable
	// past the network, expiring mid-path: the expiry router must stay
	// silent rather than generate an error about an error.
	inner, err := (&packet.IPv4{TTL: 1, Protocol: packet.ProtoUDP, Src: n.Source(), Dst: host.Addr}).MarshalInto(nil, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	m, err := packet.TimeExceeded(inner)
	if err != nil {
		t.Fatal(err)
	}
	body, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP, Src: n.Source(), Dst: host.Addr}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := n.Exchange(pkt); ok {
		t.Error("router generated ICMP about an ICMP error")
	}
}

func TestDropProbability(t *testing.T) {
	n, routers, host := testNet(t)
	routers[1].SetFaults(Faults{DropProbability: 1.0})
	if _, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 9, 1, 2)); ok {
		t.Error("probe survived a drop-probability-1 router")
	}
	// Expiring at the dropper still answers (drop applies to forwarding).
	if _, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 2, 1, 2)); !ok {
		t.Error("dropper did not answer an expiring probe")
	}
}

func TestConcurrentExchanges(t *testing.T) {
	n, _, host := testNet(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ttl := uint8(1 + (i % 4))
				resp, _, ok := n.Exchange(udpProbe(t, n, host.Addr, ttl, uint16(w), uint16(i)))
				if !ok || len(resp) == 0 {
					errs <- "missing response under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// Two routers pointing at each other with a non-expiring packet
	// (originated=false each hop decrements, so TTL death normally wins;
	// use max TTL to show the guard still bounds the walk).
	n, routers, host := testNet(t)
	routers[2].SetFaults(Faults{ForwardOverride: routers[1].Iface(0)})
	if _, _, ok := n.Exchange(udpProbe(t, n, host.Addr, 255, 1, 2)); !ok {
		// TTL 255 dies inside the loop and the last router answers;
		// either way Exchange must terminate, which reaching this line
		// proves.
		t.Log("probe lost in loop (acceptable); guard terminated the walk")
	}
}
